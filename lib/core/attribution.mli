(** Coverage attribution: a typed *cause* for every residual control-flow-
    landing block, every placed trampoline, every uninstrumentable function
    and every jump-table / function-pointer site (the paper's section 4.3
    graded-failure taxonomy, made inspectable).

    Attribution is strictly observation-only: it is assembled from the same
    per-function placement results the rewriter already computes, in sorted
    function order, so it is a pure function of the rewrite output, and
    its presence never changes the rewritten bytes or {!Rewriter.stats}
    (enforced by [test/test_report.ml],
    whose reconciliation battery also asserts that the per-cause totals here
    exactly tile the aggregate [stats]). *)

type cause =
  (* function axis *)
  | Unresolved_indirect_jump
      (** function left uninstrumented: an indirect jump neither resolved
          nor accepted as a tail call *)
  (* jump-table axis (per indirect-jump site) *)
  | Jt_resolved_exact  (** resolved, bound matches the guard *)
  | Jt_bound_over  (** resolved with an over-approximated bound *)
  | Jt_bound_under  (** resolved with an under-approximated bound *)
  | Jt_tail_call  (** unresolved jump accepted as an indirect tail call *)
  | Jt_unresolved_spill
      (** slice hit an untracked stack spill ([track_spills] off) *)
  | Jt_unresolved_join  (** slice crossed a CFG join point *)
  | Jt_unresolved_opaque  (** opaque/unrecognized computation in the slice *)
  | Jt_unresolved_base  (** table base writable or not constant *)
  | Jt_unresolved_bound  (** no range-check guard: bound unknown *)
  | Jt_unresolved_targets  (** bound applied but no feasible targets *)
  | Jt_pointer_load  (** single pointer load (indirect tail-call shape) *)
  | Jt_unresolved_jump  (** jump not decoded / not in any block *)
  (* function-pointer axis (per site) *)
  | Fptr_reloc  (** data slot rewritten via its run-time relocation *)
  | Fptr_no_reloc
      (** data slot rewritten by the value-match heuristic (no relocation —
          the inherently risky case the paper flags) *)
  | Fptr_mater  (** code materialization sites patched *)
  | Fptr_adjusted  (** adjusted-pointer slot compensated (Listing 1) *)
  | Fptr_uninstrumented_target
      (** site found but its target function is not instrumented *)
  | Mode_excluded
      (** site found but the mode does not rewrite function pointers *)
  (* CFL axis (why a block is a control-flow-landing block) *)
  | Cfl_entry  (** function entry *)
  | Cfl_landing_pad  (** exception landing pad *)
  | Cfl_jt_target  (** jump-table target (tables not cloned in this mode) *)
  | Cfl_ptr_target  (** reachable by an unrewritten/adjusted pointer *)
  | Cfl_call_fallthrough  (** call-emulation return point *)
  | Cfl_every_block  (** baseline placement: trampoline at every block *)
  (* trampoline axis (what was placed on a CFL block) *)
  | Tramp_short
  | Tramp_long
  | Tramp_hop  (** multi-trampoline hop through a scratch-pool chunk *)
  | Trap_no_reach
      (** trap: a hop chunk was available but no encoding reached *)
  | No_scratch_space  (** trap: no pool chunk within short-branch range *)
  | No_hop_kind
      (** trap: no long-form encoding exists (aarch64, no dead register) *)
  | Scratch_pool_disabled  (** trap: the scratch pool is disabled *)

val axis : cause -> string
(** ["func"], ["jt"], ["fptr"], ["cfl"] or ["tramp"]. *)

val name : cause -> string
(** Kebab-case cause name without the axis (e.g. ["unresolved-spill"]). *)

val key : cause -> string
(** [axis ^ "/" ^ name] — the JSON histogram key
    (e.g. ["jt/unresolved-spill"]). *)

val is_trap : cause -> bool
(** Is this a trap-trampoline placement cause? *)

type block_site = {
  bs_addr : int;  (** block start address *)
  bs_cfl : cause;  (** why the block is a CFL block *)
  bs_place : cause option;
      (** what was placed there; [None] only in the degenerate corner where
          a CFL candidate has no matching placement region *)
}

type func_row = {
  fr_name : string;
  fr_addr : int;
  fr_instrumented : bool;
  fr_fail : cause option;  (** [Some] iff not instrumentable *)
  fr_blocks : int;  (** total blocks (0 for non-instrumented functions) *)
  fr_sites : block_site list;  (** CFL blocks, by address *)
  fr_jt : (int * cause) list;  (** per-indirect-jump outcome, by address *)
}

type t = {
  a_mode : Mode.t;
  a_rows : func_row list;  (** in sorted function-address order *)
  a_fptr : (int * cause) list;
      (** per function-pointer site (keyed by slot / first provenance
          address), binary-level *)
}

val build :
  mode:Mode.t ->
  instrumented:(int -> bool) ->
  block_sites:(int * block_site list) list ->
  blocks_of:(int -> int) ->
  Icfg_analysis.Parse.t ->
  t
(** Assemble attribution from the parse and the rewriter's per-function
    placement outcomes. [block_sites] maps an instrumented function's entry
    address to its CFL sites; [blocks_of] gives its total block count (both
    empty/0 for non-instrumented functions). *)

(** {1 Rollups} *)

val histogram : t -> (cause * int) list
(** Counts over every recorded cause (function failures, jt sites, fptr
    sites, CFL causes, placement causes), sorted by {!key}. *)

val cfl_total : t -> int
(** Number of recorded CFL block sites (= [stats.s_cfl_blocks]). *)

val tramp_total : t -> int
(** Number of placed trampolines (= [stats.s_trampolines]). *)

val trap_total : t -> int
(** Number of trap placements (= [stats.s_trap_trampolines]). *)

val count : t -> cause -> int
(** Histogram lookup, 0 when absent. *)

type delta = {
  d_cfl : int;  (** cfl_total t - cfl_total dir *)
  d_trampolines : int;
  d_traps : int;
}

val delta : dir:t -> t -> delta
(** The mode's incremental effect vs the [Dir] baseline (negative values =
    blocks/trampolines removed by the richer mode). *)

val pp : Format.formatter -> t -> unit
(** Per-function coverage table plus the cause histogram. *)

val to_json : ?dir:t -> t -> string
(** Machine-readable report, schema ["icfg-report/1"]: totals, per-cause
    histogram (keyed by {!key}), per-function rollups, and — when [dir] is
    given and the mode is not [Dir] — the [delta_vs_dir] object. *)
