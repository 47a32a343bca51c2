(** Corpus-scale robustness matrix: every {!Icfg_baselines.Baseline}
    roster entry swept over a seeded {!Icfg_workloads.Corpus}, each cell
    classified by what actually happened, aggregated into per-approach
    pass-rate / refusal-histogram / latency rows.

    Cells are evaluated serially in corpus order, uncached. Every
    classification count is deterministic, independent of the machine;
    only the [p50]/[p95] wall times vary between runs. *)

(** What one (binary, approach) cell did. *)
type cls =
  | Verified  (** rewritten; output matches the original run *)
  | Diverged  (** rewritten and ran to completion, but output differs *)
  | Refused of string
      (** the approach refused up front; payload is the stable
          {!Icfg_baselines.Baseline.refusal_key} *)
  | Crashed of string  (** the rewritten binary crashed in the VM *)

type row = {
  row_approach : string;  (** roster name, e.g. ["srbi"], ["ours/jt"] *)
  row_cells : int;  (** corpus size; the four counts below sum to it *)
  row_verified : int;
  row_diverged : int;
  row_refused : int;
  row_crashed : int;
  row_refusals : (string * int) list;
      (** refusal histogram, keyed by {!Icfg_baselines.Baseline.refusal_key},
          sorted by key *)
  row_p50_ns : float;  (** median per-cell rewrite wall time *)
  row_p95_ns : float;
}

type t = {
  m_seed : int;
  m_count : int;
  m_rows : row list;  (** one per roster entry, in roster order *)
}

val pass_rate_pct : row -> float
(** [100 * verified / cells]; [0.] on an empty row. Deterministic — this
    is the number the bench gate compares exactly. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the nearest-rank [p]-percentile ([0. <= p <= 1.])
    of the finite values in [xs]; non-finite samples ([nan], infinities)
    are dropped before ranking and the empty sample yields [0.]. Exposed
    for the harness statistics tests. *)

val cls_to_string : cls -> string
(** Stable textual form: ["verified"], ["diverged"], ["refused:<key>"],
    ["crashed:<msg>"] — the form carried on the serve wire protocol and
    compared by the daemon-vs-in-process equality gate. *)

val cls_of_string : string -> cls option
(** Inverse of {!cls_to_string}; [None] on malformed input. *)

val classify :
  orig:Runner.run -> Icfg_baselines.Baseline.outcome -> cls
(** Classify one driver outcome: refusals are bucketed by
    {!Icfg_baselines.Baseline.refusal_key}; rewritten binaries are run in
    the VM and their output compared against [orig]. *)

val eval_cell :
  orig:Runner.run ->
  approach:string ->
  Icfg_obj.Binary.t ->
  float * cls
(** Evaluate one (binary, approach) cell: resolve the roster driver by
    name via {!Runner.drive}, classify, contain driver exceptions as
    [Crashed] cells, bump the ambient [corpus.*] trace counters. Returns
    (wall ns, classification). Both the in-process sweep ({!run}) and the
    serve daemon evaluate cells through this one function — the basis of
    the classification-equality gate. *)

val row_of : approach:string -> (float * cls) list -> row
(** Aggregate cells (in corpus order) into a row. *)

val run :
  ?seed:int -> ?count:int -> ?progress:(int -> unit) -> unit -> t
(** Sweep [Corpus.generate ~seed ~count] (defaults: seed 7, count 300)
    through every roster approach. [progress] is called with the number of
    corpus entries completed after each binary. *)

val render : t -> string
(** Human-readable table: one line per approach, then the non-empty
    refusal histograms. *)
