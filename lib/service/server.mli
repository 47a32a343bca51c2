(** The [icfg serve] daemon: a Unix-socket server speaking {!Protocol},
    scheduling request bodies on {!Scheduler} executor domains. No
    pipeline state outlives a request, so an answer depends only on the
    request's kind, approach and input bytes: the whole-response memo's
    key is everything an answer depends on.

    Isolation contract: each request body runs under a fresh per-domain
    ambient trace ({!Icfg_core.Trace.with_current}), so two concurrent
    requests' counter totals each equal their solo-run totals.
    Backpressure contract: a request arriving while the scheduler queue
    is at its bound gets a typed [Overloaded] response immediately —
    the accept loop never blocks on a full queue. Crash containment:
    request bodies catch everything ([Error] response), connection
    failures kill only their connection, and no code path in the server
    calls [exit].

    Telemetry contract: every answer except [Pong] and [StatsSnapshot]
    is booked, before it is written, in a daemon-lifetime
    {!Icfg_core.Metrics.t} registry as [serve.responses:<outcome>], and
    the [serve.errors], [serve.overloaded], [serve.rejected],
    [serve.needfull] and [serve.registered] totals count the answers of
    their kind. A served [Rewrite]/[Classify] answer also counts in
    [serve.requests], observes its body wall time in a per-approach ×
    per-outcome [request.latency:<approach>:<outcome>] histogram, folds
    its trace (counter totals under [trace.*], stage times as [stage.*]
    histograms) and is summarized into a bounded {!Flight} recorder;
    memory use does not grow with requests served. A replay answered
    from the whole-response memo (keyed on kind, approach and input
    digest) is booked the same way, but folds no trace: there was no
    pipeline run to observe. Telemetry is observation-only: serving
    with and without a scraper attached produces byte-identical
    responses (pinned by the serve test battery), and a [Stats] request
    is answered inline on its connection thread, never scheduled, so a
    saturated daemon still answers and a scrape never perturbs the
    queue it reports on. *)

type t

val start :
  path:string ->
  ?bound:int ->
  ?workers:int ->
  ?flight:Flight.t ->
  ?max_frame:int ->
  ?store_bytes:int ->
  ?memo_bytes:int ->
  unit ->
  t
(** Bind a Unix socket at [path] (an existing file is replaced), spawn
    the accept thread and [workers] executor domains (default 2).
    Each executor runs one request at a time, every stage of it serially:
    [workers] is the daemon's only parallelism knob. [bound] (default 64)
    is the request-queue bound. [flight] (default: fresh with default
    bounds) is the flight recorder — injectable so tests can shrink the
    bounds.

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

val scheduler : t -> Scheduler.t
(** Exposed for the test battery ([pause]/[resume] make the
    exact-[M]-refusals backpressure test deterministic). *)

val sock_path : t -> string

val flight : t -> Flight.t

val snapshot : t -> Icfg_core.Metrics.snapshot
(** The one way to read the daemon's totals, and what a [Stats] frame
    answers: the registry snapshot (with the [sched.queue_depth] and
    [sched.in_flight] gauges) merged with the binary store's lifetime
    counters ([store.hits], [store.misses], [store.stores], [store.evict_lru],
    [store.rejected] + [store.bytes] / [store.entries] gauges) and the
    response memo's, mirrored as [response_cache.hit],
    [response_cache.miss], [response_cache.stores],
    [response_cache.evict_lru] + [response_cache.bytes] /
    [response_cache.entries] gauges. *)
