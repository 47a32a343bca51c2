(** The pinned-layout slot store.

    A slot is a small side value addressed by what it is {e for} rather
    than by its contents: "the previous layout of this binary under these
    options". {!Rewriter.rewrite} reads last run's layout from a slot and
    overwrites it with this run's, so unchanged functions keep their
    addresses after an edit (Zipr-style pinning, arXiv 2312.00714).
    Nothing else is stored: every pipeline stage is recomputed on every
    rewrite.

    Slots live in a mutex-protected in-memory table, safe to share
    between domains, and die with it. A rewrite through a slot depends
    on the rewrites before it, so only callers that want that history
    pass one: [Runner.rewrite ?cache], for the end-to-end benchmark's
    edit loop. The daemon, the corpus matrix, the roster drivers and the
    CLI never do. *)

type t

val create : unit -> t
(** An empty store. *)

val clone : t -> t
(** Snapshot: a new store sharing nothing with [t] but pre-populated with
    its current slots, with zeroed statistics. Lets benchmarks replay a
    warm layout without re-warming. *)

type stats = {
  c_hits : int;  (** slot lookups that found a value *)
  c_misses : int;  (** slot lookups that found nothing *)
  c_stores : int;  (** slot writes *)
  c_bytes_reused : int;  (** marshalled bytes of the slots found *)
}

val stats : t -> stats

val find_slot : t -> string -> 'a option
(** [find_slot c raw] is the value last stored under [raw], if any.
    Like [Marshal.from_string], the ['a] is trusted: read a slot with
    the type it was stored at. *)

val store_slot : t -> string -> 'a -> unit
(** [store_slot c raw v] (over)writes the slot named by [raw]. *)
