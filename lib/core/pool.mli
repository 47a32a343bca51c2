(** Fixed-size domain work pool with deterministic result ordering.

    The rewriting pipeline is embarrassingly parallel across functions:
    CFG-derived relocation, CFL classification and trampoline planning touch
    only one function's analysis plus read-only whole-binary state. This
    pool fans such per-item work out across OCaml 5 domains and returns the
    results in input order, so a parallel run is observably identical to a
    serial one — the property the [test_parallel] battery enforces
    byte-for-byte on rewritten binaries.

    One pool is shared by the whole process: worker domains are spawned
    lazily and the pool grows to the largest lane count ever requested
    (never beyond {!recommended_jobs}), so mapping with jobs 2, 4, then 8
    costs 7 worker domains in total, not 1+3+7. Idle workers block on a
    condition variable and cost nothing. *)

exception Incomplete_map of { lane : int; index : int; total : int }
(** Raised (instead of a bare assertion) if a result slot is still empty
    after the completion barrier with no recorded failure — an internal
    scheduling invariant violation. [lane] is the lane that claimed the
    index ([-1] if none ever did), [index]/[total] locate the missing
    item. A printer is registered, so an escaped exception reads
    ["Pool.map: result slot i/n left unfilled (claimed by lane k)"]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the hardware-sized default for a
    [--jobs] flag, and the hard ceiling on concurrent lanes. *)

val live_workers : unit -> int
(** Worker domains spawned so far, process-wide. Monotone; at most
    [recommended_jobs () - 1] (the caller is always the remaining lane).
    Exposed so tests can pin the shared-pool growth policy. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] computes [List.map f xs] using up to [jobs] domains
    (the caller participates, so at most [jobs - 1] workers are involved;
    lanes are additionally clamped to {!recommended_jobs}, so asking for
    more parallelism than the hardware has never oversubscribes the
    runtime). Results are returned in input order regardless of how items
    were scheduled. With [jobs <= 1], or a singleton/empty list, the
    computation runs inline and no domain machinery is touched, so the
    serial path is the textbook [List.map].

    Items are distributed dynamically (an atomic index per item), which
    keeps domains busy under skewed per-item costs. If [f] raises, the
    remaining items are abandoned — no lane starts another [f] call once a
    failure is recorded — and one of the raised exceptions is re-raised
    (with its backtrace) after the in-flight calls have settled.

    [f] must not itself call {!map} or {!map_array}: the pool is a flat,
    single-level fan-out, and nested calls could deadlock by consuming
    every worker. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array flavour of {!map}; same ordering and exception guarantees. *)

val runner : ?jobs:int -> unit -> Icfg_analysis.Parse.runner
(** The one way the pipeline runs its per-item stages, shared by
    [Parse.parse], [Rewriter.rewrite] and the baselines: [map] is {!map}
    over [jobs] domains (default 1; values below 1 mean 1), [span] is
    {!Trace.span} and [count] is {!Trace.add} on the ambient trace. *)
