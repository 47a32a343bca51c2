(** A direct-mapped instruction cache model.

    The paper attributes the main overhead of patching-based rewriting to the
    "ping-pong" between original code and relocated code polluting the
    instruction cache (section 3). The VM charges a miss penalty per fetched
    line, so rewriting modes that bounce less are measurably faster. Every
    measured run ([Icfg_harness.Runner.measure_config]) uses 64 lines of
    64 bytes, a scaled-down 4 KiB L1i, and 25-cycle misses. *)

type config = {
  line_bytes : int;  (** must be a power of two *)
  lines : int;  (** must be a power of two *)
  miss_cost : int;  (** extra cycles per miss *)
}

type t

val create : config -> t
val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; returns [true] on a
    miss. *)

val misses : t -> int
val reset : t -> unit
