(** Bounded in-memory byte store with deterministic LRU eviction — the
    daemon's content-addressed binary store and its whole-response memo
    are both instances of this one structure.

    Eviction is least-recently-used by an in-process access tick, ties
    broken by key, so the victim order is a deterministic function of
    the access history. A value larger than the whole store is refused
    ([add] returns [false]) — the server turns that into a typed
    [Rejected] frame. Thread-safe. *)

type t

type stats = {
  st_hits : int;  (** [find] found the key *)
  st_misses : int;  (** [find] did not *)
  st_stores : int;  (** successful [add]s *)
  st_evictions : int;  (** entries dropped to fit an [add] *)
  st_rejected : int;  (** [add]s refused: value over the whole capacity *)
  st_bytes : int;  (** current footprint, value bytes only *)
  st_entries : int;
}

val create : ?max_bytes:int -> unit -> t
(** Default capacity 1 GiB. *)

val digest : string -> string
(** Content digest used as the wire-visible binary handle (32 hex
    chars). *)

val add : t -> key:string -> string -> bool
(** Insert (or refresh) [key], evicting LRU entries until the value
    fits. [false] iff the value alone exceeds the store capacity —
    nothing is evicted in that case. *)

val find : t -> string -> string option
(** Lookup; a hit refreshes the entry's LRU tick. *)

val mem : t -> string -> bool
(** Presence probe that does not touch the LRU tick or hit/miss
    counters. *)

val stats : t -> stats
val max_bytes : t -> int
