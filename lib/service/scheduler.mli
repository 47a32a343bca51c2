(** Bounded request scheduler for the [icfg serve] daemon: a FIFO of
    thunks drained by [workers] dedicated executor {e domains}.

    Domains, not sys-threads: {!Icfg_core.Trace.with_current} installs the
    ambient trace per-domain, so per-request isolation requires each
    in-flight request body to own its domain. The queue bound counts
    queued (not running) jobs; a full queue refuses at submit time —
    explicit backpressure, never blocking the accept loop. *)

type t

type 'a ticket
(** A one-shot mailbox for a submitted job's result. *)

val create :
  ?bound:int -> ?workers:int -> ?metrics:Icfg_core.Metrics.t -> unit -> t
(** [bound] (default 64, min 1): max queued jobs. [workers] (default 2,
    min 1): executor domains, spawned eagerly. With [metrics], the
    scheduler exports the [sched.queue_depth]/[sched.in_flight] gauges
    (updated at every enqueue/dequeue/completion; [queue_depth] alone
    understates saturation — a full complement of executors with an
    empty queue is one submit away from refusing), the [sched.jobs]
    executed-jobs counter, and the [sched.queue_wait] histogram (ns each
    job spent queued before an executor picked it up) — the saturation
    picture behind any [Overloaded] refusal. Telemetry is
    observation-only: scheduling decisions never read it. *)

val submit : t -> (unit -> 'a) -> 'a ticket option
(** Enqueue a job. [None] — and nothing enqueued — if the queue is at its
    bound or the scheduler is shutting down: the caller's typed
    [Overloaded] path. *)

val await : 'a ticket -> 'a
(** Block until the job finishes; re-raises the job's exception. (Server
    request bodies catch everything and return a typed error response,
    so awaiting a server ticket does not raise.) *)

val pending : t -> int
(** Jobs currently queued (excludes running). *)

val pause : t -> unit
(** Stop dequeueing; submissions still accepted up to the bound. With the
    executors parked, a test can fill the queue deterministically and pin
    the exact-[M]-refusals backpressure contract. *)

val resume : t -> unit

val shutdown : t -> unit
(** Drain the queue (accepted jobs hold tickets someone may be awaiting),
    stop and {e join} all executor domains. Idempotent. Further submits
    return [None]. *)
