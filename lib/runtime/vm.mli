(** The execution substrate: a byte-accurate interpreter for binaries.

    The VM decodes the actual section bytes (so trampolines, overwritten
    code, and illegal filler behave exactly as written) one basic block at
    a time, on the block's first fetch in a run; in a writable code
    section a block is one instruction, so a store into code is seen
    before that code's first fetch. It charges a fixed cycle cost per
    instruction class (1 per instruction, plus 1 for a load or store, 2
    for a multiply, 1 for a taken branch, call or return, 2 for indirect
    control flow, 12 for a runtime-library call, 4,000 to deliver a trap
    signal and 60 per unwind step), models an instruction cache, delivers
    trap signals to the runtime-library trap map, and implements
    DWARF-style stack unwinding over the binary's original [.eh_frame]
    with an optional return-address translation hook — the
    runtime-library mechanisms of sections 3 and 6 of the paper.

    A PIE binary loads at {!pie_base}, any other at its link addresses.
    The stack is the fixed 1 MiB below [0x7E100000]; a run stores only a
    window around the stack bytes it wrote, and unwritten bytes read 0. *)

val pie_base : int
(** The load base of every PIE binary: added to each section's address,
    and applied by its run-time relocations. *)

type config = {
  max_steps : int;  (** a run that reaches it crashes with a timeout *)
  icache : Icache.config option;
  trap_map : (int, int) Hashtbl.t;
      (** link-time trap address -> link-time target (the runtime library's
          trap-signal table) *)
  translate : (int -> int) option;
      (** RA translation hook wrapped around the unwinder's step function
          (the libunwind function-wrapping of section 6.1); receives and
          returns link-time addresses *)
  go_translate : (int -> int) option;
      (** translation used by the Go traceback walker's own frame stepping;
          installed together with the findfunc/pcvalue entry instrumentation
          (section 6.2) *)
  profile : (int, int) Hashtbl.t option;
      (** when set, pre-seeded keys (link-time block addresses) are
          incremented on every fetch at that address — the ground-truth
          block profiler used to verify counting instrumentation *)
}

val default_config : unit -> config
(** Fresh config: 200M steps, no icache, empty trap map, no translation,
    no profile. *)

type outcome =
  | Halted
  | Crashed of string  (** illegal instruction, unmapped access, trap without
                           mapping, unhandled exception, Go panic, timeout *)

type result = {
  outcome : outcome;
  output : int list;  (** values emitted by [Out], in order *)
  steps : int;
  cycles : int;
  icache_misses : int;
  icache_accesses : int;
      (** one per step with an icache (so [steps]), 0 without one *)
  trap_hits : int;
  unwind_steps : int;
  ra_translations : int;
      (** invocations of the RA-translation hooks ([translate],
          [go_translate], and explicit runtime-library translation calls) *)
  cycle_buckets : (string * int) list;
      (** per-cost-bucket cycle attribution, in [bucket_names] order; the
          bucket totals partition [cycles] *)
}

val bucket_names : string array
(** base, mem, mul, branch, indirect, callrt, trap, unwind, icache. *)

type t
(** A running VM instance (exposed so runtime-library routines can inspect
    and modify machine state). *)

(** {1 Running} *)

val run :
  ?config:config ->
  ?routines:(string * (t -> unit)) list ->
  Icfg_obj.Binary.t ->
  result
(** Load the binary (applying run-time relocations under PIE), bind the
    runtime-library [routines] by dynamic-symbol name, and execute from the
    entry point. Unbound [CallRt] names crash the run. *)

(** {1 State access for runtime-library routines} *)

val reg : t -> Icfg_isa.Reg.t -> int
val set_reg : t -> Icfg_isa.Reg.t -> int -> unit
val pc : t -> int
(** Runtime address of the currently-executing [CallRt] instruction. *)

val sp : t -> int
val lr : t -> int
val load_base : t -> int
val binary : t -> Icfg_obj.Binary.t
val read_mem : t -> int -> Icfg_isa.Insn.width -> int
val write_mem : t -> int -> Icfg_isa.Insn.width -> int -> unit
val emit_output : t -> int -> unit
val abort : t -> string -> unit
(** Terminate the run with [Crashed]. *)

val count_ra_translation : t -> unit
(** Bump the run's [ra_translations] counter; for runtime-library routines
    that translate return addresses outside the unwinder's hook. *)

val call_function : t -> addr:int -> args:int list -> int
(** Re-entrant call: execute the function at runtime address [addr] with the
    given arguments and return its result ([r0]); machine state is saved and
    restored. Used by the Go traceback walker to invoke the binary's own
    [runtime.findfunc]. Raises [Invalid_argument], before touching any
    register, when [args] outnumber the argument registers. *)

val find_symbol : t -> string -> int option
(** Runtime address of a function symbol. *)

(** {1 Unwinding helpers} *)

val frames : t -> (int * int) list
(** Current call-frame chain as [(runtime_pc, sp)] pairs, innermost first,
    stepped with the binary's FDEs and the [go_translate]/identity hook.
    Stops at the entry function, or at the first PC with no frame
    information (in which case the last pair has [pc = -1] as a marker). *)
