(** Reproductions of every table and figure in the paper's evaluation.

    Each function runs the full pipeline (generate → compile → parse →
    rewrite → execute both binaries → compare) and renders a paper-shaped
    report; the [*_data] variants expose the structured numbers for the test
    suite and EXPERIMENTS.md. *)

(** {1 Table 1 — qualitative comparison} *)

val table1 : unit -> string

(** {1 Table 2 — trampoline instruction sequences} *)

val table2 : unit -> string

(** {1 Figure 1 — rewritten binary layout} *)

val figure1 : unit -> string

(** {1 Figure 2 — failure-mode analysis} *)

type figure2_row = {
  f2_failure : string;
  f2_coverage_pct : float;
  f2_trampolines : int;
  f2_correct : bool;
}

val figure2_data : Icfg_isa.Arch.t -> figure2_row list
val figure2 : unit -> string

(** {1 Table 3 — SPEC-like block-level empty instrumentation} *)

type t3_row = {
  t3_approach : string;
  t3_time_max : float;
  t3_time_mean : float;
  t3_cov_min : float;
  t3_cov_mean : float;
  t3_size_max : float;
  t3_size_mean : float;
  t3_pass : int;
  t3_total : int;
}

val table3_data : Icfg_isa.Arch.t -> t3_row list
(** Rows: SRBI, dir, jt, func-ptr, and (on x86-64) Egalito. *)

val table3 : ?arches:Icfg_isa.Arch.t list -> unit -> string

val table3_detail : ?arch:Icfg_isa.Arch.t -> unit -> string
(** Per-benchmark rows (what the paper's artifact run_result.sh prints). *)

(** {1 Section 8.2 — Firefox's libxul and Docker} *)

val firefox : unit -> string
val docker : unit -> string

(** {1 Section 8.3 — comparison with BOLT} *)

type bolt_result = {
  bolt_ok : int;  (** benchmarks BOLT handled *)
  bolt_total : int;
  ours_ok : int;
}

val bolt_data :
  Icfg_isa.Arch.t -> [ `Funcs | `Blocks ] -> bolt_result

val bolt : unit -> string

(** {1 Section 9 — the Diogenes case study} *)

val diogenes_data : Icfg_isa.Arch.t -> (float, string) result
(** Speedup factor of our configuration over mainstream-Dyninst-style
    instrumentation of the libcuda subset, or [Error reason] when either
    rewriter refuses the binary — a reportable outcome (the caller prints
    a skipped cell), not a harness failure. *)

val diogenes : unit -> string

val ablation : unit -> string
(** Ablations of the design choices DESIGN.md calls out: superblocks,
    the scratch pool, CFL-only vs. every-block placement (on the ppc64le
    branch-range-stressed benchmark), and RA translation vs. call emulation
    (on the C++ exception benchmark). *)

(** {1 Coverage attribution} *)

type attribution_cell = {
  at_cfl : int;  (** residual CFL blocks *)
  at_trampolines : int;  (** placed trampolines *)
  at_traps : int;  (** trap fallbacks among them *)
}

val attribution_data :
  Icfg_isa.Arch.t ->
  (string * Icfg_core.Attribution.t * Icfg_core.Attribution.t list) list
(** Per benchmark: name, the SRBI-baseline attribution, and the attributions
    for modes [dir; jt; func-ptr] in that order. *)

val attribution_cell : Icfg_core.Attribution.t -> attribution_cell

val attribution : unit -> string
(** The paper's coverage-table view (per-benchmark CFL/trampoline/trap
    counts per configuration), the aggregate per-cause histogram, and a
    monotonicity check that residual CFL blocks and traps never increase
    along [dir -> jt -> func-ptr]. *)

val registry : (string * (unit -> string)) list
(** Every experiment by name, in the order [icfg bench] and
    [bench/main.exe] run them when given none. *)
