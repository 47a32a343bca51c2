(** The synthetic instruction set.

    One architecture-neutral instruction type is shared by the code
    generator, the disassembler, the rewriter and the VM; per-architecture
    differences (lengths, displacement ranges, which constructors are
    encodable) live in {!Encode}. Displacements of PC-relative instructions
    are always relative to the {e address of the instruction itself}:
    [target = addr + disp]. *)

type width = W8 | W16 | W32 | W64

val width_bytes : width -> int
val width_of_bytes : int -> width

type cond = Eq | Ne | Lt | Le | Gt | Ge

val negate_cond : cond -> cond

type operand = Reg of Reg.t | Imm of int

(** Memory base: a general-purpose register or the stack pointer. *)
type base = BReg of Reg.t | BSp

type t =
  | Nop
  | Halt  (** terminate the program normally *)
  | Trap
      (** trap-based trampoline: the VM delivers a signal to the runtime
          library, which consults its trap map (expensive; section 7) *)
  | Illegal  (** undecodable byte(s); executing one aborts the run *)
  | Mov of Reg.t * operand
  | Movhi of Reg.t * int  (** [rd <- imm lsl 16]; pairs with {!Orlo} *)
  | Orlo of Reg.t * int  (** [rd <- rd lor (imm land 0xffff)] *)
  | Movabs of Reg.t * int
      (** x86-64 only: load a full-width absolute immediate (10 bytes); the
          position-dependent function-pointer materialization *)
  | Add of Reg.t * operand
  | Sub of Reg.t * operand
  | Mul of Reg.t * operand
  | And_ of Reg.t * operand
  | Or_ of Reg.t * operand
  | Xor of Reg.t * operand
  | Shl of Reg.t * int
  | Shr of Reg.t * int
  | Cmp of Reg.t * operand  (** sets the VM condition flags *)
  | Load of width * Reg.t * base * int  (** [rd <- mem(base + disp)] *)
  | Store of width * base * int * Reg.t  (** [mem(base + disp) <- rs] *)
  | LoadIdx of width * Reg.t * Reg.t * Reg.t * int
      (** [LoadIdx (w, rd, rb, ri, scale)]: [rd <- mem(rb + ri*scale)];
          the jump-table read instruction *)
  | Lea of Reg.t * int  (** [rd <- addr + disp] (PC-relative address) *)
  | AddSp of int  (** [sp <- sp + imm] (frame allocation) *)
  | Jmp of int  (** unconditional PC-relative branch *)
  | Jcc of cond * int  (** conditional PC-relative branch *)
  | Call of int
      (** direct call; pushes the return address (x86-64) or sets the link
          register (ppc64le, aarch64) *)
  | IndJmp of Reg.t  (** indirect jump: jump tables and indirect tail calls *)
  | IndCall of Reg.t
  | IndCallMem of base * int  (** call through a memory slot *)
  | Ret
  | CallRt of int
      (** PLT-like call to runtime-library routine [n] (a dynamic symbol);
          used for external instrumentation libraries *)
  | Throw  (** raise: value in [r0]; triggers stack unwinding *)
  | Out of Reg.t  (** append [rs] to the observable program output *)
  | Mflr of Reg.t  (** [rd <- lr] (ppc64le, aarch64) *)
  | Mtlr of Reg.t  (** [lr <- rs] *)
  | Mttar of Reg.t  (** [tar <- rs] (ppc64le special branch-target register) *)
  | Btar  (** branch to [tar] (ppc64le long trampoline, Table 2) *)
  | Adrp of Reg.t * int
      (** [rd <- (addr land (lnot 4095)) + disp]; [disp] is a multiple of
          4096 (aarch64 long trampoline, Table 2) *)
  | Addis of Reg.t * Reg.t * int
      (** [rd <- rs + (imm lsl 16)] (ppc64le TOC-relative addressing) *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

(** {1 Classification} *)

val is_terminator : t -> bool
(** Ends a basic block: branches, calls, returns, [Halt], [Throw], [Trap],
    [Illegal], [Btar]. (Calls end blocks because the fall-through block may
    be a control-flow landing block.) *)

val is_branch : t -> bool
(** Unconditional or conditional direct branch. *)

val is_call : t -> bool
(** Direct, indirect, memory-indirect or runtime-library call. *)

val is_indirect : t -> bool
(** [IndJmp], [IndCall], [IndCallMem] or [Btar]. *)

val has_fallthrough : t -> bool
(** Execution can continue at the next instruction ([Jcc], calls, and all
    non-terminators). *)

val direct_target : addr:int -> t -> int option
(** Target of a direct branch or call located at [addr]. *)

val with_direct_target : addr:int -> t -> int -> t
(** [with_direct_target ~addr i target] rewrites the displacement of a direct
    branch/call at [addr] to reach [target]. Raises [Invalid_argument] on
    non-direct-control-flow instructions. *)

(** {1 Dataflow helpers (used by liveness and slicing)}

    The masks are the one definition of what an instruction reads and
    writes: bit [Reg.index r] is set iff [r] is in the set (see
    {!Reg.bit}). Liveness reads the masks directly; {!defs} and {!uses}
    are the same sets as [Reg.Set.t], derived from them. *)

val defs_mask : t -> int
(** General-purpose registers written by the instruction, as a mask. *)

val uses_mask : t -> int
(** General-purpose registers read by the instruction, as a mask. *)

val defs : t -> Reg.Set.t
(** General-purpose registers written by the instruction:
    [Reg.set_of_mask (defs_mask i)]. *)

val uses : t -> Reg.Set.t
(** General-purpose registers read by the instruction:
    [Reg.set_of_mask (uses_mask i)]. *)
