(** Jump-table analysis: backward slicing from indirect jumps (section 5.1).

    The slicer walks backwards from an indirect jump, building a symbolic
    expression for the jump target. Recognized shapes are:

    - [mem64(T + 8*idx)] — absolute entries (ppc64le, and writable data
      dispatch, which is rejected as unresolvable);
    - [T + mem32(T + 4*idx)] — table-relative entries (x86-64);
    - [B + 4*mem{8,16}(T + s*idx)] — narrow, code-base-relative entries
      (aarch64).

    Value spills through the stack are followed only when the failure model
    enables [track_spills]; the table bound comes from the preceding
    range-check guard or from the injected over/under-approximation policy,
    with extension trimmed at known non-table data (Assumption 2). *)

type unres =
  | U_spill  (** slice hit a stack value spilled while [track_spills] is off *)
  | U_join  (** slice crossed a CFG join point *)
  | U_opaque  (** opaque or unrecognized computation in the slice *)
  | U_base_writable  (** table base points into writable memory *)
  | U_base_unknown  (** table base is not a constant *)
  | U_no_bound  (** no range-check guard found, table bound unknown *)
  | U_no_targets  (** bound applied but no entry yields a feasible target *)
  | U_pointer_load  (** single pointer load — indirect tail-call shape *)
  | U_bad_jump  (** not an indirect jump / not decoded / not in a block *)

(** Why slicing or finalization failed, for coverage attribution. *)

type bound_cause =
  | B_exact  (** effective entry count matches the guard *)
  | B_over  (** effective count exceeds the guard (wasted clone space) *)
  | B_under  (** effective count below the guard (lost coverage) *)

(** How the applied bound relates to the range-check guard's entry count
    (section 4.3's graded-failure axis for jump tables). *)

type table = {
  t_jump : int;  (** address of the indirect jump *)
  t_load : int;  (** address of the table-read instruction *)
  t_width : Icfg_isa.Insn.width;
  t_scale : int;  (** byte stride used by the table read *)
  t_index : Icfg_isa.Reg.t;  (** index register *)
  t_table : int;  (** table start address *)
  t_base : int option;  (** [None] when entries are absolute *)
  t_base_tied : bool;
      (** the tar() base is the same value as the table address (x86-64
          idiom), so retargeting the table retargets the base *)
  t_mult : int;  (** target = base + mult * entry *)
  t_count : int;
  t_entries : int list;  (** raw entry values *)
  t_slots : int option list;
      (** per-entry feasible target, positionally ([None] = infeasible
          over-approximated entry; a clone writes a zero there) *)
  t_targets : int list;  (** feasible targets, in entry order *)
  t_mater : int list;
      (** addresses of the instructions that materialize the table address
          (patched by jump-table cloning) *)
  t_in_code : bool;  (** the table lives in an executable section *)
  t_bound : bound_cause;
      (** effective count vs the guard, after policy and known-data clamp *)
}

type slice =
  | S_table of pre_table  (** recognized dispatch; bound not yet applied *)
  | S_pointer_load  (** a single pointer load — indirect tail-call shape *)
  | S_unresolved of unres * string
      (** slicing failed: typed cause plus human-readable message *)

and pre_table

val slice_jump : Icfg_obj.Binary.t -> Failure_model.t -> Cfg.t -> int -> slice
(** Slice one indirect jump of the function. *)

val pre_table_addr : pre_table -> int

val known_data :
  Icfg_obj.Binary.t -> pre_table list -> int list
(** Sorted addresses of known non-jump-table data and other table starts,
    used to trim over-approximated bounds. *)

type result =
  | Resolved of table
  | Unresolved of unres * string

val table_words :
  Icfg_obj.Binary.t ->
  Failure_model.t ->
  known_data:int list ->
  pre_table ->
  int option list option
(** The bound-and-read step of {!finalize}: one entry per table slot the
    bound policy and the known-data clamp admit, holding the word read
    there ([None] if unmapped). [None] when no bound can be inferred.
    These words are every image byte {!finalize} reads, so a cached
    finalize keys on them. *)

val finalize :
  Icfg_obj.Binary.t ->
  Failure_model.t ->
  known_data:int list ->
  Cfg.t ->
  pre_table ->
  result
(** Apply the bound policy, read entries, compute and sanity-trim targets. *)

val analyze :
  Icfg_obj.Binary.t ->
  Failure_model.t ->
  known_data:int list ->
  Cfg.t ->
  (int * result) list
(** Slice and finalize every indirect jump of the function; pointer loads
    surface as [Unresolved (U_pointer_load, _)]. *)
