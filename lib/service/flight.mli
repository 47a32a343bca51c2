(** Flight recorder: a bounded, constant-memory record of the daemon's
    recent and worst behavior, so [icfg serve] can explain itself after
    the fact without keeping every request's trace alive.

    Three bounded retention classes:
    - the last [ring] request {e summaries} (approach, outcome, ns —
      cheap, no trace);
    - the full traces of the [slowest] slowest requests seen so far
      (latency post-mortems);
    - the full traces of the last [errors] {e errored} requests (crash
      post-mortems — the trace an [Error] frame would otherwise discard
      with the request).

    Recording takes the recorder's mutex and is O(bound); concurrent
    executor domains may record freely. Observation-only: nothing in the
    request path reads the recorder. *)

type summary = {
  fs_id : int;  (** dense per-recorder sequence number, from 1 *)
  fs_approach : string;
  fs_outcome : string;  (** ["rewritten"], ["error"], ["classified-verified"], … *)
  fs_ns : int;  (** request body wall time *)
  fs_errored : bool;
}

type t

val create : ?ring:int -> ?slowest:int -> ?errors:int -> unit -> t
(** Bounds (all min 1): [ring] summaries (default 64), [slowest] retained
    slow traces (default 8), [errors] retained errored traces
    (default 16). *)

val record :
  t ->
  approach:string ->
  outcome:string ->
  ns:int ->
  errored:bool ->
  Icfg_core.Trace.t option ->
  unit
(** Record one completed request with its trace ([None] for a memo
    replay, which ran no pipeline). The trace is retained only if the
    request errored or ranks among the slowest seen, and rendered to
    JSON only by {!snapshot}. *)

type snapshot = {
  fl_recorded : int;  (** requests ever recorded (≥ ring length) *)
  fl_recent : summary list;  (** newest first, ≤ ring bound *)
  fl_slowest : (summary * string) list;  (** slowest first, with traces *)
  fl_errors : (summary * string) list;  (** newest first, with traces *)
}

val snapshot : t -> snapshot
(** Renders each retained trace with {!Icfg_core.Trace.to_json}; a
    retained memo replay renders as [{}]. *)

val to_json : snapshot -> string
(** Schema [icfg-flight/1]. Retained traces are embedded as parsed
    objects (they are already [icfg-trace/1] JSON), not re-escaped
    strings, so the document stays grep-able. *)
