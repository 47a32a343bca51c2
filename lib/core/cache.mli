(** Content-addressed memoization of per-function pipeline artifacts.

    Every pure per-item stage of the pipeline — per-function CFG /
    jump-table analysis, finalization + liveness, function-pointer scans,
    relocation, trampoline placement planning, and per-function chunk
    encoding ([Asm.encode_chunks]) — is a deterministic function of
    plain data. A cache entry is keyed by a digest of {e everything} that
    function reads (function bytes, whole-binary context, failure model,
    rewrite options, stage tag, {!schema_version}), so a stale entry can
    never match: any input change changes the key and the entry is simply
    never found again. There is no mutation-based invalidation to get
    wrong.

    Two tiers share one {!t}:

    - an in-process store (a mutex-protected hash table) shared safely
      across [Pool] lanes, and
    - an opt-in on-disk store ([create ~dir]) with a versioned entry
      format. Corrupt, truncated or version-skewed entries degrade to a
      miss — never an error, never wrong bytes — and are evicted
      (counted in [c_evict_corrupt] / the [cache.evict_corrupt] trace
      counter). The disk tier can be size-bounded
      ([create ~max_disk_bytes]): once the total size of on-disk entries
      exceeds the bound, least-recently-used entries lose their disk file
      (counted in [c_evict_lru] / [cache.evict_lru]) while keeping their
      in-memory copy.

    Observation safety: the cache must be jobs-independent like every
    other pipeline observable. {!memo_map} therefore computes keys and
    performs lookups serially in input order (so hit/miss counts cannot
    depend on the parallel schedule) and only fans the {e misses} out
    across the pool. Hit payloads are unmarshalled freshly per lookup, so
    mutable structures inside cached values (CFG succ/pred tables,
    liveness arrays) are never aliased between runs. *)

val schema_version : int
(** Bumped whenever the marshalled shape of any cached value changes;
    part of every key, so old stores degrade to universal misses. *)

type t

val create : ?dir:string -> ?max_disk_bytes:int -> unit -> t
(** In-memory cache; with [dir], also backed by an on-disk store rooted
    there (created, including parents, if missing). With
    [max_disk_bytes], the on-disk tier is LRU-bounded: entries already
    present in [dir] are accounted as coldest, and every store that
    pushes the total over the bound evicts least-recently-used disk
    files (deterministically, by {!Lru}: minimal access tick, ties by
    key) until it fits again. Eviction removes only the disk file — the
    in-memory copy is kept; an entry larger than the whole bound is kept
    in memory only. *)

val clone : t -> t
(** Snapshot: a new cache sharing nothing with [t] but pre-populated with
    its current in-memory entries, with zeroed statistics and {e no}
    on-disk tier. Lets benchmarks replay a warm cache without re-warming. *)

type stats = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bytes_reused : int;  (** marshalled payload bytes served from cache *)
  c_evict_corrupt : int;  (** on-disk entries dropped as corrupt/stale *)
  c_evict_lru : int;  (** on-disk entries dropped by the size bound *)
}

val stats : t -> stats

val hit_rate : stats -> float
(** [c_hits / (c_hits + c_misses)] in [0, 1]; [0.] when no lookups have
    happened. Jobs-independent, like the underlying counters. *)

val dir : t -> string option

val memo_map :
  ?cache:t ->
  jobs:int ->
  stage:string ->
  key:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [memo_map ?cache ~jobs ~stage ~key f xs] is observably
    [Pool.map ~jobs f xs] — and exactly that when [cache] is [None]
    ([key] is never called). With a cache: keys are computed and looked
    up serially in input order, misses are computed with
    [Pool.map ~jobs] and stored, and results are reassembled in input
    order. Stages build raw keys with {!Icfg_obj.Key}; the final key
    digests [kjoin [magic; schema_version; stage; key x]], so equal raw
    keys in different stages never collide. [f] must be a pure function
    of what [key] digests, and ['b] must be marshal-safe plain data.
    Counters ([cache.hit], [cache.hit:<stage>], [cache.miss],
    [cache.miss:<stage>], [cache.bytes_reused], [cache.evict_corrupt])
    are recorded on the ambient {!Trace} when one is installed. *)

val entry_files : t -> string list
(** Absolute paths of the on-disk entries currently present (sorted);
    [[]] without a disk tier. Slot files (see {!find_slot}) are not
    included. For fault-injection tests. *)

(** {1 Slots}

    A slot is a small side value addressed by what it is {e for} rather
    than by its contents — e.g. "the previous layout of this binary
    under these options" — so a warm run can load last run's result and
    overwrite it with this run's. Slots live in the shared in-memory
    table (so {!clone} carries them into warm replays) and in [.slot]
    files next to the entry tier; they do not participate in hit/miss
    statistics, {!entry_files} or the LRU bound. A slot that fails to
    unmarshal (foreign writer, cross-version store) reads as absent and
    is evicted, counted in [c_evict_corrupt]. *)

val find_slot : t -> string -> 'a option
(** [find_slot c raw] is the value last stored under [raw], if any.
    Like [Marshal.from_string], the ['a] is trusted: read a slot with
    the type it was stored at. *)

val store_slot : t -> string -> 'a -> unit
(** [store_slot c raw v] (over)writes the slot named by [raw]. *)

(** {1 The stage runner} *)

val runner : ?cache:t -> ?jobs:int -> unit -> Icfg_analysis.Parse.runner
(** The one way the pipeline runs its per-item stages, shared by
    [Parse.parse] and [Rewriter.rewrite]: [map] is {!memo_map} under
    [cache] over [jobs] domains (default 1; values below 1 mean 1), [span]
    is {!Trace.span} and [count] is {!Trace.add} on the ambient trace. *)
