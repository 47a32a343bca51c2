(** Blocking client for the [icfg serve] daemon: one connection, one
    in-flight request at a time (concurrency = many clients, the model
    the throughput bench and the determinism battery use). *)

type t

val connect : string -> t
(** Connect to the daemon's Unix socket; raises [Unix.Unix_error] if no
    daemon is listening. *)

val close : t -> unit

val fd : t -> Unix.file_descr
(** The raw connection descriptor — lets tests speak raw frames at the
    daemon (e.g. the malformed-frame containment battery). *)

val with_connection : string -> (t -> 'a) -> 'a

val bytes_sent : t -> int
(** Request frame bytes this connection has written ({!Protocol.frame_bytes}
    of each), [NeedFull] fallback retries included. Frames written
    through {!fd} directly are not counted. *)

val call : t -> Protocol.request -> (Protocol.response, string) result
(** Send one request, await its response. [Error] covers a malformed
    response and a server hang-up; it never raises on protocol faults. *)

val ping : t -> (Protocol.response, string) result

val register :
  t -> Icfg_obj.Binary.t -> (Protocol.response, string) result
(** Upload a binary into the daemon's content-addressed store once
    ([Registered] with its digest on success, [Rejected] if the daemon
    will not hold it); later requests can ship [Ref]/[Patch] payloads
    against the digest instead of the binary. *)

val register_bytes : t -> string -> (Protocol.response, string) result
(** [register] for already-serialized {!Icfg_obj.Binfile} bytes. *)

val rewrite_payload :
  t ->
  approach:string ->
  ?fallback:string ->
  Protocol.payload ->
  (Protocol.response, string) result
(** Submit a rewrite with an explicit payload (full bytes, [Ref digest],
    or a sparse [Patch]). With [fallback] (the full Binfile bytes), a
    typed [NeedFull] — the referenced base was evicted or never seen —
    is transparently retried as a full upload, which also re-registers
    the bytes so the incremental path heals for subsequent requests. *)

val classify_payload :
  t ->
  approach:string ->
  ?fallback:string ->
  Protocol.payload ->
  (Protocol.response, string) result

val rewrite :
  t ->
  approach:string ->
  Icfg_obj.Binary.t ->
  (Protocol.response, string) result
(** Submit [bin] for rewriting by the named roster approach. Ships a
    [Full] payload. *)

val classify :
  t ->
  approach:string ->
  Icfg_obj.Binary.t ->
  (Protocol.response, string) result
(** Submit a full corpus-matrix cell evaluation. Ships a [Full]
    payload. *)

val stats : t -> ?flight:bool -> unit -> (Protocol.response, string) result
(** Scrape the daemon's telemetry ([StatsSnapshot] on success). Answered
    inline by the connection thread — works while the daemon is
    saturated, and does not count as a served request. With [flight]
    the snapshot also carries the [icfg-flight/1] recorder dump. *)
