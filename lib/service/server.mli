(** The [icfg serve] daemon: a Unix-socket server speaking {!Protocol},
    scheduling request bodies on {!Scheduler} executor domains, sharing
    one {!Icfg_core.Cache.t} of layout slots across every request it ever
    serves.

    Isolation contract: each request body runs under a fresh per-domain
    ambient trace ({!Icfg_core.Trace.with_current}), so two concurrent
    requests' counter totals each equal their solo-run totals.
    Backpressure contract: a request arriving while the scheduler queue
    is at its bound gets a typed [Overloaded] response immediately —
    the accept loop never blocks on a full queue. Crash containment:
    request bodies catch everything ([Error] response), connection
    failures kill only their connection, and no code path in the server
    calls [exit].

    Telemetry contract: every completed request is folded into a
    daemon-lifetime {!Icfg_core.Metrics.t} registry (its trace counter
    totals under [trace.*], schedule-independent stage times as
    [stage.*] histograms, and body wall time in a per-approach ×
    per-outcome [request.latency:<approach>:<outcome>] histogram) and
    summarized into a bounded {!Flight} recorder — after which the
    request's trace is dropped; memory use does not grow with requests
    served. Telemetry is observation-only: serving with and without a
    scraper attached produces byte-identical responses (pinned by the
    serve test battery), and a [Stats] request is answered inline on its
    connection thread, never scheduled, so a saturated daemon still
    answers and a scrape never perturbs the queue it reports on. *)

type t

val start :
  path:string ->
  ?bound:int ->
  ?workers:int ->
  ?jobs:int ->
  ?cache:Icfg_core.Cache.t ->
  ?flight:Flight.t ->
  ?max_frame:int ->
  ?store_bytes:int ->
  ?memo_bytes:int ->
  unit ->
  t
(** Bind a Unix socket at [path] (an existing file is replaced), spawn
    the accept thread and [workers] executor domains (default 2).
    [bound] (default 64) is the request-queue bound. [jobs] (default 1)
    is the per-request pipeline parallelism used when a request carries
    [jobs <= 0]. [cache] (default: fresh) is the shared layout-slot
    store. [flight] (default: fresh with default bounds) is the flight
    recorder — injectable so tests can shrink the bounds.

    Incremental-protocol knobs: [max_frame] (default
    {!Protocol.max_frame}, clamped to it) bounds accepted request
    frames — an over-limit frame is drained and answered with a typed
    [Rejected], not a dropped connection. [store_bytes] / [memo_bytes]
    (default 1 GiB each) bound the content-addressed binary store and
    the whole-response memo; both evict LRU, and an evicted base turns
    later [Ref]/[Patch] requests into typed [NeedFull] responses. *)

val stop : t -> unit
(** Graceful shutdown, idempotent: stop accepting, drain queued requests
    (their connections get answers), join executor domains and
    connection threads, remove the socket file. *)

type stats = {
  requests : int;  (** work requests answered (rewritten/refused/classified/error) *)
  overloaded : int;  (** typed backpressure refusals *)
  errors : int;  (** [Error] responses (crashed drivers, malformed frames) *)
  pending : int;  (** scheduler jobs queued, not yet picked up *)
  in_flight : int;
      (** scheduler jobs running on executors right now. [pending] alone
          understates saturation — a full executor complement with an
          empty queue is one submit away from [Overloaded]. *)
}

val stats : t -> stats
val cache : t -> Icfg_core.Cache.t
val scheduler : t -> Scheduler.t
(** Exposed for the test battery ([pause]/[resume] make the
    exact-[M]-refusals backpressure test deterministic). *)

val sock_path : t -> string

val metrics : t -> Icfg_core.Metrics.t
(** The daemon-lifetime registry (scheduler gauges, [serve.*] totals,
    [trace.*] folds, [request.latency:*]/[stage.*] histograms). *)

val flight : t -> Flight.t

val store : t -> Store.t
(** The content-addressed binary store behind [Register]/[Ref]/[Patch]. *)

val response_memo : t -> Store.t
(** The whole-response memo: (kind, approach, normalized jobs, input
    digest) → first pipeline response's encoded payload. Replays answer
    from here on the connection thread, byte-identical, without entering
    the scheduler. Memo hits count as served requests and reach the
    flight recorder, but fold no [trace.*]/[stage.*] telemetry — there
    was no pipeline run to observe. *)

val snapshot : t -> Icfg_core.Metrics.snapshot
(** What a [Stats] frame answers: the registry snapshot merged with the
    slot store's lifetime counters ([cache.hits], [cache.misses],
    [cache.stores], [cache.bytes_reused], [cache.evict_corrupt]), the
    binary store's ([store.hits], [store.misses],
    [store.stores], [store.evict_lru], [store.rejected] + [store.bytes]
    / [store.entries] gauges) and the response memo's, mirrored as
    [response_cache.hit], [response_cache.miss], [response_cache.stores],
    [response_cache.evict_lru] + [response_cache.bytes] /
    [response_cache.entries] gauges. *)
