(** Measured executions: the experiment harness's view of one benchmark.

    Every run of a compiled or rewritten binary goes through this module
    (the strong test's, the CLI's, the experiments', the tests' and the
    examples'), and every run uses {!measure_config}: the
    instruction-cache model enabled (the ping-pong between original and
    relocated code is the paper's stated overhead source). The harness
    verdicts rewrite with the empty instrumentation payload, exactly like
    the paper's block-level empty-instrumentation test; the strong test
    counts. *)

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

val measure_config : Icfg_runtime.Vm.config
(** The one run configuration: icache enabled (64 lines of 64 bytes,
    25-cycle misses), everything else {!Icfg_runtime.Vm.default_config}'s.
    A PIE binary loads at {!Icfg_runtime.Vm.pie_base}. Its trap map is
    empty and shared by every run, which only reads it. *)

val run_original : Icfg_obj.Binary.t -> run
(** The original binary's measured run, booked into the ambient trace:
    [book_original (original_vm bin)]. *)

val original_vm :
  ?profile:(int, int) Hashtbl.t -> Icfg_obj.Binary.t -> Icfg_runtime.Vm.result
(** The original binary's run under {!measure_config}, timed as the
    ambient trace's [run:original] span. It depends only on the binary:
    the configuration is fixed, and so is the runtime library, the
    standard one. [profile] is a table for the run to fill: each key, a
    block start, counts the times that block was entered
    ({!Icfg_runtime.Vm.config}'s [profile]). *)

val book_original : Icfg_runtime.Vm.result -> run
(** Add a finished original run's [vm/original/*] counters to the
    ambient trace. Booking a stored result adds the same counters as the
    run that produced it. *)

val run_rewritten :
  ?counters:(int, int) Hashtbl.t -> Icfg_core.Rewriter.t -> run
(** Runs [rw_binary] under {!measure_config} with the runtime library
    attached, as the paper's LD_PRELOAD library attaches: the rewrite's
    trap map, its RA-translation hooks when it asks for them, and the
    standard routines plus counting, RA translation and dynamic
    translation bound to its maps. [counters] is a table for the
    counting payload to fill: each [CallRt] count site adds one under
    its original block address ([rw_counter_of_site]). *)

(** What a rewritten run shows against the original run. *)
type judgement =
  | Verified of float
      (** halted with the original's output; the payload is the cycle
          overhead in percent *)
  | Diverged  (** halted with a different output *)
  | Crashed of string  (** the rewritten binary crashed in the VM *)

val judge : orig:run -> run -> judgement
(** The one output-equality and overhead rule: every harness verdict,
    the corpus classification, the ablations, the strong test and
    [icfg run] use it. *)

(** {1 The strong correctness test}

    The paper's section 8 test: count every basic block, overwrite every
    original code byte of the relocated functions with illegal
    instructions, run the original binary under a ground-truth block
    profile and the rewrite with its counters, and require that

    - both runs halt, with the same output ({!judge});
    - every block of every relocated function ran exactly as many times
      in both runs (instrumentation integrity, section 4.1). *)

type problem =
  | Original_crashed of string
  | Rewritten_crashed of string
  | Output_mismatch
  | Count_mismatch of { block : int; expected : int; got : int }

val pp_problem : Format.formatter -> problem -> unit

type strong = {
  st_problems : problem list;
      (** in the order found; the test passed iff this is empty *)
  st_blocks_checked : int;
      (** blocks of relocated functions; 0 when the runs disagree *)
  st_blocks_executed : int;  (** checked blocks the original entered *)
  st_orig : run;
  st_rewritten : run;
  st_rewrite : Icfg_core.Rewriter.t;  (** the rewrite that was run *)
  st_counts : (int, int) Hashtbl.t;
      (** what the counting payload counted in the rewritten run: each
          key an original block address ({!run_rewritten}'s [counters]) *)
}

val strong_test :
  ?fm:Icfg_analysis.Failure_model.t ->
  ?options:Icfg_core.Rewriter.options ->
  Icfg_obj.Binary.t ->
  strong
(** Parse, rewrite, run both binaries and judge, recording into the
    ambient trace: the parse and rewrite spans, [run:original],
    [run:rewritten] and [check-counts], and the [vm/original/*] and
    [vm/rewritten/*] counters. The [options]' payload is forced to
    [P_count], granularity to [G_block] and [overwrite_original] on;
    everything else (mode, placement knobs, [only]) is honoured. Counts
    are checked only when both runs halt with the same output. *)

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
  orig:run -> coverage:float -> Icfg_baselines.Baseline.outcome -> verdict
(** Runs the rewritten binary (if any) and checks outcome and output
    equality against the original run. The size growth is the rewrite's
    own: [s_new_size] against [s_orig_size]. *)
