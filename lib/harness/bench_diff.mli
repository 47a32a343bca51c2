(** The bench regression gate: compare two [BENCH_micro.json] runs
    (schema [icfg-bench-micro/1]) — micro rows, parallel rows, per-stage
    trace rows and their merged counter totals — and classify every
    difference.

    Policy:

    - Counters are compared exactly per [(stage, jobs, name)]. An increase
      in a worse-is-higher counter (trap trampolines, runtime traps, size
      growth, icache misses) is a {e regression}; any other change is
      informational (deterministic counters should not move, but a changed
      workload legitimately moves them).
    - Time metrics ([ns_per_run], stage [ns]) are gated only when [gate]
      is given {e and} both runs report the same core count — wall-clock
      comparisons across machines are noise. A new value above
      [old * (1 + gate/100)] that also grew by more than an absolute
      50µs noise floor is a regression (one-shot sub-µs spans jitter by
      integer factors and must not flap the gate).
    - A row present in OLD but missing in NEW is a regression (lost
      coverage), except [lane-*] trace rows, which exist only when the
      domain pool actually spawns and are schedule-dependent.
    - A row (or counter) present only in NEW carries the explicit
      {!severity.Added} classification: always reported — a growing
      suite should be visible — and never gating, so landing new bench
      rows (e.g. the cache cold/warm rows) cannot trip the gate against
      an older baseline.
    - Corpus robustness rows ([corpus] section, keyed by approach) hold a
      deterministic [pass_rate_pct]: a drop is a regression
      {e unconditionally} — no [gate], no noise floor, no same-cores
      requirement — unless the two runs swept different corpus sizes
      ([cells] differ), in which case the rates measure different
      populations and only the mismatch is reported. Refusal-histogram
      counts moving are informational, new refusal keys are
      {!severity.Added}, and the per-approach [p50_ns]/[p95_ns] wall
      times follow the normal time policy above.
    - Telemetry rows ([metrics] section, keyed by name) hold only
      counters that are deterministic functions of the served stream
      (request/outcome totals, per-approach × per-outcome latency
      histogram observation counts, eviction counters), so any drift in
      either direction is a regression — a dropped count is a lost
      request as surely as a risen error count is a new fault. Counters
      only NEW knows are {!severity.Added}; the ns sums in the row's
      [times] bag follow the normal time policy. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Hand-rolled recursive-descent JSON parser (no JSON dependency — same
    policy as the writers in [bench/main.ml] and {!Icfg_core.Trace}). *)

type severity = Regression | Added | Info

type finding = { f_severity : severity; f_metric : string; f_msg : string }

val diff : ?gate:float -> json -> json -> (finding list, string) result
(** [diff ?gate old new] compares two parsed [icfg-bench-micro/1]
    documents. [gate] is the allowed time growth in percent; when absent,
    times are never gated. [Error] on documents that are not bench-micro
    objects. *)

val diff_strings : ?gate:float -> string -> string -> (finding list, string) result

val diff_files :
  ?gate:float -> string -> string -> (finding list, string) result
(** [diff_files ?gate old_path new_path]. [Error] on unreadable files or
    parse failures. *)

val check_cache : ?max_ratio:float -> json -> (finding list, string) result
(** Warm-path gate over the ["cache"] section of a parsed
    [icfg-bench-micro/1] (or standalone [icfg-bench-cache/1]) document:
    the [cache-warm-perturbed] row's time must stay within [max_ratio]
    (default [1.3]) of [cache-warm-identical], and the
    [cache-warm-data-edit] row must report zero misses for every stage
    counter ([miss:parse/pass1], [miss:parse/fptr],
    [miss:parse/finalize], [miss:parse/fptr2], [miss:rewrite/relocate],
    [miss:rewrite/plan], [miss:encode]) — a data-only edit that flips no
    jump-table word costs no stage at all.
    Violations come back as [Regression] findings (the passing ratio is
    reported as [Info]); [Error] on non-bench documents. *)

val check_cache_string :
  ?max_ratio:float -> string -> (finding list, string) result

val check_cache_file :
  ?max_ratio:float -> string -> (finding list, string) result

val has_regression : finding list -> bool

val render : finding list -> string
(** Human-readable report, regressions first. *)
