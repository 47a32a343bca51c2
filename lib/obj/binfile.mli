(** On-disk serialization of binaries.

    A compact, versioned container format (magic ["ICFG1"]) so rewritten
    binaries can be written out, inspected later, and re-run — what a real
    binary rewriter produces. Round-trips every field of {!Binary.t}. *)

val to_bytes : Binary.t -> Bytes.t
val of_bytes : Bytes.t -> Binary.t
(** Raises [Invalid_argument] on a bad magic, version, or truncation. *)

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
