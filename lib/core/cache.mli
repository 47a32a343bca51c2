(** The pinned-layout slot store.

    A slot is a small side value addressed by what it is {e for} rather
    than by its contents: "the previous layout of this binary under these
    options". {!Rewriter.rewrite} reads last run's layout from a slot and
    overwrites it with this run's, so unchanged functions keep their
    addresses after an edit (Zipr-style pinning, arXiv 2312.00714).
    Nothing else is stored: every pipeline stage is recomputed on every
    rewrite.

    Slots live in a mutex-protected in-memory table, shared safely by the
    daemon's executor domains, and optionally in self-validating [.slot]
    files under [dir], so a layout pins across invocations. A slot file
    that fails validation, or whose payload does not unmarshal (a foreign
    writer, a cross-version store), reads as absent and is evicted —
    counted in [c_evict_corrupt] and the [cache.evict_corrupt] trace
    counter. A corrupt store can cost a re-layout, never an error. *)

type t

val create : ?dir:string -> unit -> t
(** In-memory store; with [dir], also backed by [.slot] files there
    (the directory is created, including parents, if missing). *)

val clone : t -> t
(** Snapshot: a new store sharing nothing with [t] but pre-populated with
    its current slots, with zeroed statistics and {e no} [dir]. Lets
    benchmarks replay a warm layout without re-warming. *)

type stats = {
  c_hits : int;  (** slot lookups that found a value *)
  c_misses : int;  (** slot lookups that found nothing *)
  c_stores : int;  (** slot writes *)
  c_bytes_reused : int;  (** marshalled bytes of the slots found *)
  c_evict_corrupt : int;  (** slots dropped as corrupt or stale *)
}

val stats : t -> stats

val find_slot : t -> string -> 'a option
(** [find_slot c raw] is the value last stored under [raw], if any.
    Like [Marshal.from_string], the ['a] is trusted: read a slot with
    the type it was stored at. *)

val store_slot : t -> string -> 'a -> unit
(** [store_slot c raw v] (over)writes the slot named by [raw]. *)
