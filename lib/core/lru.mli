(** Size-accounted, deterministic least-recently-used bookkeeping — the
    eviction policy behind the daemon's byte stores
    ([Icfg_service.Store]).

    Every entry carries a size and an access tick from a per-structure
    counter. When an insert pushes the footprint over the capacity, the
    victims are the entries with the smallest (tick, key) — the key
    tie-break makes the victim order a deterministic function of the
    access history even for entries seeded at the same tick, never of
    hash order. An entry larger than the whole capacity is refused.

    Not thread-safe: callers serialize access under their own lock. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Empty; [capacity] (default: unbounded) is the footprint bound. *)

val seed : 'a t -> string -> 'a -> size:int -> unit
(** Record a pre-existing entry as coldest (tick 0), without evicting:
    seeded entries tie on tick and are evicted in key order. *)

val add : 'a t -> string -> 'a -> size:int -> string list option
(** Insert or replace [key] as the most recently used entry, then evict
    least-recently-used {e other} entries until the footprint fits;
    returns the victims in eviction order. [None] — and nothing changes —
    iff [size] alone exceeds the capacity. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes the entry's tick. *)

val mem : 'a t -> string -> bool
(** Presence probe that does not refresh the tick. *)

val remove : 'a t -> string -> unit

val total : 'a t -> int
(** Current footprint: the sum of the recorded sizes. *)

val length : 'a t -> int
val capacity : 'a t -> int
