(** Control-flow graph construction by control-flow traversal.

    Instructions are discovered by following edges from the function entry
    (plus any [extra_targets], e.g. resolved jump-table targets), never by
    linear sweep — so data embedded in code (ppc64le jump tables) is not
    decoded as instructions, exactly as the paper requires to drop
    Assumption 1 of section 5.1. Basic blocks have incoming control flow
    only at their start address (section 4.1's CFG definition). *)

type edge_kind =
  | E_fallthrough  (** next instruction after a conditional branch or call *)
  | E_branch  (** direct jump or taken conditional *)
  | E_jump_table of int  (** resolved indirect-jump edge via the table at [addr] *)

type block = {
  b_start : int;
  b_end : int;  (** exclusive *)
  b_insns : (int * Icfg_isa.Insn.t * int) list;  (** (addr, insn, length) *)
}

type t = {
  fsym : Icfg_obj.Symbol.t;
  blocks : block list;  (** sorted by start address *)
  succs : (int, (int * edge_kind) list) Hashtbl.t;  (** keyed by block start *)
  preds : (int, int list) Hashtbl.t;
  calls : (int * int option) list;
      (** (call-site, callee entry); [None] for indirect calls *)
  ind_jumps : int list;  (** indirect-jump instruction addresses *)
  tail_targets : int list;
      (** direct branches leaving the function (direct tail calls) *)
}

val build :
  ?extra_targets:int list ->
  ?jump_table_edges:(int * int list) list ->
  Icfg_obj.Binary.t ->
  Icfg_obj.Symbol.t ->
  t
(** Build the CFG of one function. [extra_targets] adds block leaders (e.g.
    pointer-derived targets); [jump_table_edges] maps an indirect-jump
    address to its resolved targets, adding [E_jump_table] edges.

    [build] is pure: its result depends only on the binary, the symbol and
    the two lists, so equal arguments give equal CFGs. Nothing writes a
    [t] after it is built; [succs] and [preds] are tables only for
    lookup. {!Parse} relies on both to keep pass 1's CFG of a function
    that gains no leader and no edge instead of building it again. All of
    a build's decoding goes through one {!Icfg_obj.Binary.decoder} for
    the function's entry. *)

val block_at : t -> int -> block option
(** The block starting exactly at the address. *)

val block_containing : t -> int -> block option
val entry_block : t -> block
val successors : t -> int -> (int * edge_kind) list
val predecessors : t -> int -> int list

val covered_ranges : t -> (int * int) list
(** Byte ranges occupied by discovered instructions, merged and sorted; the
    complement within the function range is its {e gaps} (used by the
    indirect-tail-call layout heuristic of section 5.1). *)

val gaps : t -> (int * int) list

val terminator : block -> (int * Icfg_isa.Insn.t * int) option
(** The block's last instruction if it is a control-flow instruction. *)

val pp : Format.formatter -> t -> unit
