(** On-disk serialization of binaries.

    A compact, versioned container format (magic ["ICFG2"]) so rewritten
    binaries can be written out, inspected later, and re-run — what a real
    binary rewriter produces. Round-trips every field of {!Binary.t}. A
    section is stored as its declared size and its stored prefix, so a
    zero-filled tail ({!Section.t}) is never written out, read back, or
    scanned for. *)

val max_image : int
(** 256 MiB: the most bytes the sections of one container may declare,
    tails included — the same bound [Protocol.max_frame] puts on an
    upload. *)

val to_bytes : Binary.t -> Bytes.t
val of_bytes : Bytes.t -> Binary.t
(** Raises [Invalid_argument] on a bad magic, version or truncation, and
    on a malformed section: a negative size, stored bytes over the
    declared size, or declared sizes summing past {!max_image}. *)

val to_string : Binary.t -> string
(** [to_bytes] without the extra [Bytes.to_string] copy — for callers
    that ship container bytes as immutable strings (the serve wire).
    Either way the image is allocated once, at its exact size. *)

val of_string : string -> Binary.t
(** Zero-copy twin of {!of_bytes}: decodes directly from the string
    (the reader never mutates its input). Raises [Invalid_argument]
    like {!of_bytes}. *)

val save : string -> Binary.t -> unit
(** Write to a file. *)

val load : string -> Binary.t
(** Read from a file; raises [Sys_error] or [Invalid_argument]. *)
