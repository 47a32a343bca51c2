(** General-purpose and special registers of the synthetic machine.

    All three architecture flavours share 16 general-purpose registers
    [r0]..[r15] plus a stack pointer. ppc64le and aarch64 additionally have a
    link register; ppc64le reserves [r2] as the TOC base and has the [tar]
    special branch-target register used by the long trampoline sequence
    (Table 2 of the paper). *)

type t = private int
(** A general-purpose register index in [0, 15]. *)

val make : int -> t
(** [make i] is register [r<i>]. Raises [Invalid_argument] unless
    [0 <= i < count]. *)

val index : t -> int
val count : int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val all : t list
(** [r0] .. [r15] in order. *)

val r0 : t
val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t
val r6 : t
val r7 : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val r13 : t
val r14 : t
val r15 : t

val toc : t
(** The ppc64le table-of-contents base register ([r2]). The synthetic ppc64le
    compiler never allocates it for other purposes, mirroring the real ABI. *)

val arg_regs : t list
(** Registers used to pass the first arguments ([r0], [r1], [r3], [r4]; never the ppc64le TOC register [r2]). *)

val ret : t
(** Register holding function return values ([r0]). *)

val callee_saved : t list
(** Registers preserved across calls by the synthetic calling convention. *)

val caller_saved : Arch.t -> t list
(** Registers a call may clobber; candidates for trampoline scratch
    registers found by liveness analysis (section 7 of the paper). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val bit : t -> int
(** [1 lsl index r]: the register's bit in a register mask, an [int] in
    which bit [i] is set iff [r<i>] is in the set. *)

val set_of_mask : int -> Set.t
(** The registers whose bits are set in a register mask. *)
