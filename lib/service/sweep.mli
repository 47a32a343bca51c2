(** Corpus sweep through a live daemon — the deployment-shaped twin of
    {!Icfg_harness.Matrix.run}: every (binary, approach) cell travels the
    wire as a [Classify] request and is evaluated in-daemon by the same
    [Matrix.eval_cell], so classification rows must equal the in-process
    sweep's exactly (wall times aside). {!check} pins that equality and
    the CI serve-smoke step gates it. *)

type payload_mode =
  | Full_upload  (** every request ships the whole Binfile (the default) *)
  | By_ref
      (** register every binary once up front, then ship 32-byte [Ref]
          digests; a [NeedFull] (evicted base) falls back to a full
          upload, which re-registers *)

type result = {
  sw_seed : int;
  sw_count : int;
  sw_clients : int;
  sw_rows : Icfg_harness.Matrix.row list;
      (** roster order; cells aggregated in corpus order *)
  sw_requests : int;  (** the daemon's [serve.requests] *)
  sw_overloaded : int;
      (** the daemon's [serve.overloaded]; should be 0: the sweep bounds
          in-flight by clients *)
  sw_errors : int;  (** client-observed transport/Error responses *)
  sw_wall_ns : float;
  sw_rps : float;  (** cells per second through the daemon *)
  sw_metrics : Icfg_core.Metrics.snapshot;
      (** the daemon's merged telemetry snapshot taken just before stop —
          exactly what a live [Stats] frame would have answered *)
  sw_wire_req_bytes : int;
      (** request frame bytes the stream's {!Client}s wrote
          ({!Client.bytes_sent}; excludes registration) *)
  sw_full_req_bytes : int;
      (** what the same stream would have shipped as all-[Full] uploads *)
  sw_register_bytes : int;
      (** one-time [Register] frame bytes written (By_ref) *)
  sw_needfull : int;
      (** the daemon's [serve.needfull]: Refs answered [NeedFull] and
          re-sent in full *)
}

val run :
  ?seed:int ->
  ?count:int ->
  ?clients:int ->
  ?payload_mode:payload_mode ->
  unit ->
  result
(** Start a daemon on a fresh temp socket, drive the
    [Corpus.generate ~seed ~count] × roster grid through it with
    [clients] concurrent client threads (corpus-major item order), stop
    the daemon. The daemon gets [min 4 clients] executors and a queue
    bound of at least [clients], so the sweep is refusal-free. Binaries
    are prebuilt (and serialized) serially before the clock starts;
    [By_ref] registration also happens off the clock. *)

val check :
  ?seed:int ->
  ?count:int ->
  ?clients:int ->
  unit ->
  bool * string * result
(** Run {!run} and {!Icfg_harness.Matrix.run} on the same slice and
    compare per-approach classification rows with times stripped.
    Returns (match?, printable report, daemon result). *)
