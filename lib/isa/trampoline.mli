(** Trampoline instruction sequences (Table 2 of the paper).

    A trampoline transfers control from a patched location in the original
    [.text] to the relocated code in [.instr]. Each architecture has a short
    form (limited range) and a long form (multiple instructions, wide range);
    the long forms on ppc64le and aarch64 need a scratch register found by
    liveness analysis. When nothing fits, the rewriter falls back to a
    one-instruction trap trampoline, which the runtime library resolves
    through its trap map at a high signal-delivery cost. *)

type kind =
  | Short  (** single direct branch: 2 B / ±128 B (x86-64), 4 B / ±32 MiB (ppc64le), 4 B / ±128 MiB (aarch64) *)
  | Long of Reg.t option
      (** x86-64: 5-byte branch, no register ([None]);
          ppc64le: [addis reg, r2, hi; addi reg, lo; mtspr tar, reg; bctar]
          (±2 GiB around the TOC base);
          aarch64: [adrp reg; add reg, lo12; br reg] (±4 GiB) *)
  | Long_save_restore of Reg.t
      (** ppc64le only: no dead register available, so save [reg] below the
          stack pointer and restore it after loading [tar] (6 instructions) *)
  | Trap_tramp  (** trap instruction; resolved by the runtime library *)

val pp_kind : Format.formatter -> kind -> unit

val len : Arch.t -> kind -> int
(** Encoded length in bytes of a trampoline of this kind. *)

val trap_len : Arch.t -> int
(** Length of the trap trampoline (1 byte on x86-64, 4 elsewhere). *)

val short_reaches : Arch.t -> at:int -> target:int -> bool
val long_reaches : Arch.t -> at:int -> target:int -> toc:int -> bool

val emit : Arch.t -> at:int -> target:int -> toc:int -> kind -> string
(** Encode the trampoline bytes for installation at address [at], branching
    to [target]. [toc] is the ppc64le TOC base (ignored elsewhere). Raises
    {!Encode.Not_encodable} if the kind cannot reach the target. *)

val select :
  Arch.t ->
  at:int ->
  space:int ->
  target:int ->
  dead:(unit -> Reg.Set.t) ->
  toc:int ->
  kind option
(** Choose the cheapest non-trap trampoline that fits in [space] bytes at
    [at] and reaches [target], given the registers [dead ()] at the patch
    point. Returns [None] when only a trap (or a multi-trampoline hop
    arranged by the caller) remains.

    [dead] is called only where the answer depends on it: on ppc64le and
    aarch64, after a short branch does not fit or does not reach and the
    long form both fits and reaches. x86-64 never calls it, so a caller
    can defer the liveness analysis behind it (section 7) and pay for it
    only at the sites that need a scratch register. *)

type row = {
  arch : Arch.t;
  instructions : string;  (** human-readable sequence, as in Table 2 *)
  range : int;  (** ± branching range in bytes *)
  length_desc : string;  (** e.g. "2B" or "4I" *)
}

val catalogue : row list
(** The rows of Table 2, for the reproduction harness. *)
