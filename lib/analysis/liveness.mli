(** Register liveness over a function CFG.

    Used by trampoline instruction selection (section 7): the ppc64le and
    aarch64 long trampoline sequences need a scratch register that is dead
    at the patch point. The analysis is a standard backward may-live
    fixpoint; anything unknown (indirect control flow leaving the function,
    calls) conservatively treats the calling convention's live set as live.

    Register sets are 16-bit masks. Each block's backward transfer is
    summarised once as a (gen, kill) pair; a call kills the return and
    argument registers and uses its operands plus the argument registers.
    A worklist then iterates from the empty set, seeded in reverse address
    order and re-queueing a block's predecessors whenever its live-in
    grows. The transfers are monotone over a finite lattice, so the result
    is the least fixpoint, reached in time linear in blocks plus edges.
    There is no iteration cap: an earlier address-order sweep stopped
    after 100 sweeps, which on a chain of more than 100 blocks reported a
    register live only at the chain's end as dead at its entry. *)

type t

val analyze : Cfg.t -> t

val live_in : t -> int -> Icfg_isa.Reg.Set.t
(** Registers possibly live at a block's start address. Unknown blocks
    report every register live (fully conservative). *)

val dead_in : Icfg_isa.Arch.t -> t -> int -> Icfg_isa.Reg.Set.t
(** Caller-saved registers that are definitely dead at the block start —
    candidates for trampoline scratch registers. *)
