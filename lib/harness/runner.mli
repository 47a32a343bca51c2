(** Measured executions: the experiment harness's view of one benchmark.

    Every measurement runs with the instruction-cache model enabled (the
    ping-pong between original and relocated code is the paper's stated
    overhead source) and the empty instrumentation payload, exactly like the
    paper's block-level empty-instrumentation test. *)

(** {1 Rewriting pipeline}

    [parse], [rewrite] and [drive] accept a [?jobs] argument and ignore
    it. It is kept only so that the end-to-end benchmark under
    [icfg-bench/], which passes [~jobs:1] and may not be edited outside a
    benchmark change, still compiles; every stage of one binary runs
    serially.

    [rewrite]'s [?cache] (the layout slot) stays for the same reason: the
    benchmark's edit loop times warm rewrites through it. Nothing else
    passes one, so what [drive], the corpus matrix, the daemon and the
    CLI return depends only on the approach and the input bytes. *)

val parse :
  ?fm:Icfg_analysis.Failure_model.t ->
  ?jobs:int ->
  Icfg_obj.Binary.t ->
  Icfg_analysis.Parse.t
(** [Parse.parse], traced into the ambient {!Icfg_core.Trace}. *)

val rewrite :
  ?fm:Icfg_analysis.Failure_model.t ->
  ?options:Icfg_core.Rewriter.options ->
  ?jobs:int ->
  ?cache:Icfg_core.Cache.t ->
  Icfg_obj.Binary.t ->
  Icfg_core.Rewriter.t
(** Parse + rewrite. [cache] holds the layout slot
    {!Icfg_core.Rewriter.rewrite} pins against. Output is identical to an
    uncached rewrite unless a function's relocated size changed since the
    slot's snapshot; then unchanged functions keep their addresses. *)

val drive :
  approach:string ->
  ?jobs:int ->
  Icfg_obj.Binary.t ->
  Icfg_baselines.Baseline.outcome option
(** Run one {!Icfg_baselines.Baseline.approaches} roster entry by name.
    [None] if [approach] is not on the roster. This is the single
    resolution point shared by the corpus matrix and the serve daemon:
    both drive cells through it, which is what makes daemon-vs-in-process
    classification equality a meaningful (and gated) invariant. *)

val perturb_function : Icfg_analysis.Parse.t -> (Icfg_obj.Binary.t * string) option
(** The parsed binary, {!Icfg_obj.Binary.patch}ed to flip the low bit
    of one mov-immediate in one function (plus that function's name),
    chosen so only that function's analysis/rewrite artifacts change and
    its length stays the same — the function edit of the pinned-layout
    tests and benchmarks. [None] if no safely perturbable site exists. *)

val perturb_data : Icfg_analysis.Parse.t -> (Icfg_obj.Binary.t * string) option
(** The parsed binary, {!Icfg_obj.Binary.patch}ed to flip one byte of
    one loaded non-executable section (plus that section's name),
    validated by re-parsing: the perturbed binary must reproduce the
    identical analysis, so the edit flips no jump-table word the parse
    reads and a warm rewrite pins every segment of the layout. [None] if
    no validated site is found within the attempt budget. *)

val perturb_symbol :
  Icfg_analysis.Parse.t -> (Icfg_obj.Binary.t * string) option
(** The parsed binary, sections shared, with one instrumentable
    function's symbol renamed (plus the original name): relocated code is
    address-namespaced, so the rename changes no segment and a warm
    rewrite pins every one. [None] if no suitable symbol exists. *)

type run = {
  r_outcome : Icfg_runtime.Vm.outcome;
  r_cycles : int;
  r_output : int list;
  r_traps : int;
  r_icache_misses : int;
  r_steps : int;
}

val measure_config : pie:bool -> Icfg_runtime.Vm.config
(** Icache enabled; PIE binaries load at a fixed non-zero base. *)

val run_original : Icfg_obj.Binary.t -> run

val run_rewritten : Icfg_core.Rewriter.t -> run
(** Runs with the rewriter's trap map and translation hooks installed. *)

(** What a rewritten run shows against the original run. *)
type judgement =
  | Verified of float
      (** halted with the original's output; the payload is the cycle
          overhead in percent *)
  | Diverged  (** halted with a different output *)
  | Crashed of string  (** the rewritten binary crashed in the VM *)

val judge : orig:run -> run -> judgement
(** The one output-equality and overhead rule: every harness verdict,
    the corpus classification, the ablations and [icfg run] use it. *)

(** Result of one (benchmark, approach) cell. *)
type verdict = {
  v_pass : bool;
  v_reason : string;  (** failure reason, or "" *)
  v_overhead_pct : float;  (** cycles vs. the original run (when passing) *)
  v_coverage_pct : float;  (** instrumented functions / total *)
  v_size_pct : float;  (** loaded-size increase *)
  v_traps : int;
}

val evaluate :
  orig:run ->
  coverage:float ->
  orig_size:int ->
  Icfg_baselines.Baseline.outcome ->
  verdict
(** Runs the rewritten binary (if any) and checks outcome and output
    equality against the original run. *)
