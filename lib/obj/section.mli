(** Sections of the ELF-like binary container.

    A section is a named, contiguous byte range at a fixed virtual address.
    Like an ELF segment whose [p_memsz] exceeds its [p_filesz], a section
    stores only a prefix of its bytes ([data]) and declares its full
    [size]: the bytes from [Bytes.length data] up to [size] are a
    zero-filled tail that no layer materialises until something writes
    into it. The invariant is [Bytes.length data <= size].
    Only loaded sections count towards the binary size reported by
    {!Binary.loaded_size} (mirroring binutils [size], which the paper uses
    for its size-increase numbers in Table 3). *)

type perm = { read : bool; write : bool; execute : bool }

val r_x : perm
(** read + execute (code sections) *)

val r_only : perm
(** read-only (e.g. [.rodata]) *)

val r_w : perm
(** read + write (e.g. [.data]) *)

type t = {
  name : string;
  vaddr : int;
  data : Bytes.t;  (** the stored prefix *)
  size : int;  (** declared size, [>= Bytes.length data] *)
  perm : perm;
  loaded : bool;
}

val make :
  ?loaded:bool -> ?size:int -> name:string -> vaddr:int -> perm:perm -> Bytes.t -> t
(** [size] defaults to [Bytes.length data] (no tail). Raises
    [Invalid_argument] on a negative [vaddr] or a [size] below the stored
    bytes. *)

val size : t -> int
(** The declared size, tail included. *)

val end_vaddr : t -> int
(** [vaddr + size]: one past the last byte. *)

val contains : t -> int -> bool
(** Whether a virtual address falls inside the section. *)

val rename : t -> string -> t

val pp : Format.formatter -> t -> unit
