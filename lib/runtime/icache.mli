(** A direct-mapped instruction cache model.

    The paper attributes the main overhead of patching-based rewriting to the
    "ping-pong" between original code and relocated code polluting the
    instruction cache (section 3). The VM charges a miss penalty per fetched
    line, so rewriting modes that bounce less are measurably faster. *)

type config = {
  line_bytes : int;  (** must be a power of two (default 64) *)
  lines : int;  (** must be a power of two (default 512 = 32 KiB) *)
  miss_cost : int;  (** extra cycles per miss (default 20) *)
}

val default_config : config

type t

val create : config -> t
val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; returns [true] on a
    miss. *)

val misses : t -> int
val reset : t -> unit
