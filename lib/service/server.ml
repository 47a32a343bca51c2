module Trace = Icfg_core.Trace
module Metrics = Icfg_core.Metrics
module Binfile = Icfg_obj.Binfile
module Baseline = Icfg_baselines.Baseline
module Rewriter = Icfg_core.Rewriter
module Runner = Icfg_harness.Runner
module Matrix = Icfg_harness.Matrix
module Vm = Icfg_runtime.Vm

(* The [icfg serve] daemon.

   Thread/domain layout: one accept sys-thread plus one sys-thread per
   connection do the framing I/O (they never record traces, so sharing
   the accept domain's DLS is harmless); request *bodies* run on the
   scheduler's dedicated executor domains, each under a fresh
   [Trace.with_current] — per-domain ambient traces are what keeps two
   concurrent requests' counters from bleeding into each other. The
   only pipeline result that outlives a request is an input's original
   [Vm] run (the run memo, below), a function of the input bytes alone:
   an answer depends only on the request's kind, approach and input
   bytes.

   Crash containment: the request body catches everything and returns a
   typed [Error] response; the accept loop and connection loops never
   call [exit]. A malformed frame costs one [Error] response; a torn
   connection costs that connection only.

   Telemetry: every frame the connection loop writes, [Pong] and
   [StatsSnapshot] aside, goes through [answer], which books it in the
   daemon-lifetime [Metrics.t] registry before writing it. A served
   request also folds its isolated trace there (counter totals under
   [trace.*], span times as [stage.*] histograms, body wall time in a
   per-approach × per-outcome [request.latency:*] histogram) and drops a
   summary into the [Flight] recorder, which keeps the trace only if it
   ranks among the slowest or errored. [Stats] requests are answered
   inline on the connection thread, like [Ping]: a saturated daemon
   still answers, and a scrape never touches the request queue or any
   per-request state it is observing.

   Incremental protocol (DESIGN §15): two bounded [Store.t]s make the
   service boundary incremental. The *binary store* holds registered
   Binfile bytes content-addressed by digest, so [Ref]/[Patch] payloads
   ship a handle or a sparse delta instead of the binary; payload
   resolution happens on the connection thread (pure byte work, no
   pipeline state). The *response memo* maps (kind, approach, input
   digest) to the encoded response payload of the first run,
   so a byte-identical replay is answered in O(1) on the connection
   thread without touching the scheduler — and, being the stored bytes
   of a real pipeline response, is byte-identical to what the pipeline
   would produce (pinned by the serve test battery). Memo hits fold no
   [trace.*]/[stage.*] telemetry — there was no pipeline run to
   observe — but still count as served requests and land in the flight
   recorder.

   Run memo: a third bounded [Store.t] maps an input digest to the
   original binary's [Vm] result, the baseline every Classify of that
   input judges its rewritten run against. A Classify of an input the
   daemon has run before books the stored result's [vm/original/*]
   counters, so its answer is byte-identical to a fresh daemon's, but
   records no [run:original] span: nothing ran. *)

type t = {
  sock_path : string;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  store : Store.t;
  memo : Store.t;
  run_memo : Store.t;
  max_req : int;
  registry : Metrics.t;
  fl : Flight.t;
  cm : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable stopping : bool;
}

let scheduler t = t.sched
let sock_path t = t.sock_path
let flight t = t.fl

(* Registry snapshot + the stores' lifetime counters (each keeps its own
   stats; mirroring them per-lookup would double-count). *)
let snapshot t =
  let ss = Store.stats t.store in
  let ms = Store.stats t.memo in
  let rs = Store.stats t.run_memo in
  let store_snap =
    {
      Metrics.empty with
      Metrics.s_counters =
        [
          ("response_cache.evict_lru", ms.Store.st_evictions);
          ("response_cache.hit", ms.Store.st_hits);
          ("response_cache.miss", ms.Store.st_misses);
          ("response_cache.stores", ms.Store.st_stores);
          ("run_memo.evict_lru", rs.Store.st_evictions);
          ("run_memo.hit", rs.Store.st_hits);
          ("run_memo.miss", rs.Store.st_misses);
          ("run_memo.stores", rs.Store.st_stores);
          ("store.evict_lru", ss.Store.st_evictions);
          ("store.hits", ss.Store.st_hits);
          ("store.misses", ss.Store.st_misses);
          ("store.rejected", ss.Store.st_rejected);
          ("store.stores", ss.Store.st_stores);
        ];
      Metrics.s_gauges =
        [
          ("response_cache.bytes", ms.Store.st_bytes);
          ("response_cache.entries", ms.Store.st_entries);
          ("run_memo.bytes", rs.Store.st_bytes);
          ("run_memo.entries", rs.Store.st_entries);
          ("store.bytes", ss.Store.st_bytes);
          ("store.entries", ss.Store.st_entries);
        ];
    }
  in
  Metrics.merge (Metrics.snapshot t.registry) store_snap

(* Histogram names must be deterministic across runs: keep the approach
   and the outcome *kind*, drop refusal keys / crash messages (those
   stay in the flight recorder where per-request detail belongs). *)
let outcome_label (resp : Protocol.response) =
  match resp with
  | Protocol.Pong -> "pong"
  | Protocol.Rewritten _ -> "rewritten"
  | Protocol.Refused _ -> "refused"
  | Protocol.Classified { cls; _ } -> (
      match cls with
      | Matrix.Verified -> "classified-verified"
      | Matrix.Diverged -> "classified-diverged"
      | Matrix.Refused _ -> "classified-refused"
      | Matrix.Crashed _ -> "classified-crashed")
  | Protocol.Error _ -> "error"
  | Protocol.Overloaded -> "overloaded"
  | Protocol.StatsSnapshot _ -> "stats"
  | Protocol.Registered _ -> "registered"
  | Protocol.NeedFull _ -> "needfull"
  | Protocol.Rejected _ -> "rejected"

(* What a served Rewrite/Classify answer adds to its booking: the body
   wall time and the pipeline trace ([None] for a memo replay, which ran
   no pipeline and so folds no [trace.*]/[stage.*] telemetry). *)
type served = { sv_approach : string; sv_ns : int; sv_trace : Trace.t option }

(* The one answer path. Every frame [conn_loop] writes, [Pong] and
   [StatsSnapshot] aside, is booked here and then written, so a client
   that has read its answer scrapes totals that include it. Each request
   records into its own trace, so [trace.*] sums across requests equal
   the sums of solo-run totals (pinned by the serve test battery). *)
let answer t fd ?served ~outcome payload =
  let m = t.registry in
  Metrics.incr m ("serve.responses:" ^ outcome);
  (match outcome with
  | "error" -> Metrics.incr m "serve.errors"
  | "overloaded" | "rejected" | "needfull" | "registered" ->
      Metrics.incr m ("serve." ^ outcome)
  | _ -> ());
  Option.iter
    (fun { sv_approach = approach; sv_ns = ns; sv_trace } ->
      Metrics.incr m "serve.requests";
      Metrics.observe m ("request.latency:" ^ approach ^ ":" ^ outcome) ns;
      Option.iter
        (fun tr ->
          List.iter
            (fun (k, v) -> Metrics.add m ("trace." ^ k) v)
            (Trace.counters tr);
          List.iter
            (fun (r : Trace.row) ->
              Metrics.observe m ("stage." ^ r.Trace.r_path) r.Trace.r_ns)
            (Trace.rows tr))
        sv_trace;
      Flight.record t.fl ~approach ~outcome ~ns
        ~errored:(outcome = "error") sv_trace)
    served;
  Protocol.write_frame fd payload

(* A fully resolved unit of scheduled work: the connection thread has
   already turned the payload (Full/Ref/Patch) into container bytes and
   their digest; executor domains only ever see bytes. *)
type work = {
  wk_kind : [ `Rewrite | `Classify ];
  wk_approach : string;
  wk_bin : string;  (* resolved Binfile container bytes *)
  wk_digest : string;
}

let since t0 = Int64.to_int (Int64.sub (Metrics.now_ns ()) t0)

(* The input's original run, from the run memo when the daemon has run
   this input before. The key is complete: the run depends only on the
   input bytes (see [Runner.original_vm]). A crashed run is stored like
   a halted one, since it is as deterministic; a raising one stores
   nothing. Marshal is safe here: the memo holds only [Vm.result]s
   written by this function. *)
let original t (w : work) bin =
  Runner.book_original
    (match Store.find t.run_memo w.wk_digest with
    | Some v -> (Marshal.from_string v 0 : Vm.result)
    | None ->
        let r = Runner.original_vm bin in
        ignore (Store.add t.run_memo ~key:w.wk_digest (Marshal.to_string r []));
        r)

(* Runs on an executor domain. Total: every failure becomes a typed
   response, so the daemon keeps serving whatever a request throws at
   it (the Matrix Crashed-cell contract, lifted to the wire). Returns
   the body's wall time and trace with it, for [answer] to book. *)
let run_request t (w : work) =
  let tr = Trace.create () in
  let t0 = Metrics.now_ns () in
  let resp =
    try
      Trace.with_current tr @@ fun () ->
      (* Decoding straight from the wire string (no [Bytes.of_string]
         round-trip) saves one whole-binary copy per request; the saved
         bytes are counted so the win shows up in [trace.*]. *)
      Trace.add "serve.bin_bytes_zero_copy" (String.length w.wk_bin);
      let bin = Binfile.of_string w.wk_bin in
      match w.wk_kind with
      | `Rewrite -> (
          match Runner.drive ~approach:w.wk_approach bin with
          | None ->
              Protocol.Error
                {
                  message = "unknown approach: " ^ w.wk_approach;
                  counters = Trace.counters tr;
                }
          | Some (Baseline.Rewritten rw) ->
              let out = Binfile.to_string rw.Rewriter.rw_binary in
              Trace.add "serve.bin_bytes_zero_copy" (String.length out);
              (* Register the result so the editor loop can chain its
                 next [Patch] against the digest we return. *)
              let digest = Store.digest out in
              ignore (Store.add t.store ~key:digest out);
              Protocol.Rewritten
                { bin = out; digest; counters = Trace.counters tr }
          | Some (Baseline.Refused reason) ->
              Protocol.Refused
                { reason; digest = w.wk_digest; counters = Trace.counters tr }
          )
      | `Classify ->
          let orig = original t w bin in
          let ns, cls = Matrix.eval_cell ~orig ~approach:w.wk_approach bin in
          Protocol.Classified
            { cls; ns; digest = w.wk_digest; counters = Trace.counters tr }
    with e ->
      (* [tr] was created before [with_current], so the counters the
         request accumulated up to the crash are still readable — the
         Error frame carries them like every success frame does. *)
      Protocol.Error
        { message = Printexc.to_string e; counters = Trace.counters tr }
  in
  (resp, since t0, tr)

(* Turn a request payload into container bytes + digest, registering
   full uploads and patch results along the way (a reconstructed binary
   is as referenceable as an uploaded one). Pure byte work — runs on the
   connection thread, never the executors. *)
let resolve_payload t = function
  | Protocol.Full bin ->
      let digest = Store.digest bin in
      (* Opportunistic: a binary too large for the store still rewrites
         fine, it just can't be referenced later. *)
      ignore (Store.add t.store ~key:digest bin);
      Ok (bin, digest)
  | Protocol.Ref digest -> (
      match Store.find t.store digest with
      | Some bin -> Ok (bin, digest)
      | None -> Error (`Need_full digest))
  | Protocol.Patch { base; total_len; ranges } -> (
      match Store.find t.store base with
      | None -> Error (`Need_full base)
      | Some base_bytes -> (
          match Protocol.apply_patch ~base:base_bytes ~total_len ranges with
          | Ok bin ->
              let digest = Store.digest bin in
              ignore (Store.add t.store ~key:digest bin);
              Ok (bin, digest)
          | Error m -> Error (`Bad m)))

(* The response memo entry is the already-encoded response payload of
   the first (pipeline-computed) run, prefixed by its outcome label, so
   a replay answers with byte-identical wire bytes and still books the
   right serve.responses:* / error totals. The key holds everything the
   answer depends on: kind, approach and input. *)
let memo_key (w : work) =
  (match w.wk_kind with `Rewrite -> "R:" | `Classify -> "C:")
  ^ w.wk_approach ^ ":" ^ w.wk_digest

let memo_pack ~outcome payload =
  String.make 1 (Char.chr (String.length outcome land 0xff)) ^ outcome ^ payload

let memo_unpack entry =
  let n = Char.code entry.[0] in
  (String.sub entry 1 n, String.sub entry (1 + n) (String.length entry - 1 - n))

let conn_loop t fd =
  let finally () =
    (try Unix.close fd with _ -> ());
    Mutex.lock t.cm;
    t.conns <- List.filter (fun f -> f != fd) t.conns;
    Mutex.unlock t.cm
  in
  Fun.protect ~finally @@ fun () ->
  let reply resp =
    answer t fd ~outcome:(outcome_label resp) (Protocol.response_to_payload resp)
  in
  let error m = reply (Protocol.Error { message = m; counters = [] }) in
  (* Run (or replay) one resolved unit of work. The memo is consulted
     first: a byte-identical re-request answers with the stored payload
     of its first pipeline run — same wire bytes, same booking, and no
     scheduler traffic at all. *)
  let run_work w =
    let key = memo_key w in
    match Store.find t.memo key with
    | Some entry ->
        let t0 = Metrics.now_ns () in
        let outcome, payload = memo_unpack entry in
        answer t fd ~outcome payload
          ~served:
            { sv_approach = w.wk_approach; sv_ns = since t0; sv_trace = None }
    | None -> (
        match Scheduler.submit t.sched (fun () -> run_request t w) with
        | None -> reply Protocol.Overloaded
        | Some tk ->
            let resp, ns, tr = Scheduler.await tk in
            let outcome = outcome_label resp in
            let payload = Protocol.response_to_payload resp in
            ignore (Store.add t.memo ~key (memo_pack ~outcome payload));
            answer t fd ~outcome payload
              ~served:
                { sv_approach = w.wk_approach; sv_ns = ns; sv_trace = Some tr })
  in
  let handle kind ~approach payload =
    match resolve_payload t payload with
    | Ok (bin, digest) ->
        run_work
          {
            wk_kind = kind;
            wk_approach = approach;
            wk_bin = bin;
            wk_digest = digest;
          }
    | Error (`Need_full digest) ->
        (* Typed miss, not an error: the base was evicted or never seen.
           Clients fall back to a full upload (which re-registers). *)
        reply (Protocol.NeedFull { digest })
    | Error (`Bad m) -> error m
  in
  let write_inline resp =
    Protocol.write_frame fd (Protocol.response_to_payload resp)
  in
  try
    let rec loop () =
      match
        match Protocol.read_frame ~max:t.max_req fd with
        | frame -> `Frame frame
        | exception Protocol.Oversized n -> `Oversized n
      with
      | `Oversized n ->
          (* The payload was drained: refuse in-band, keep serving. *)
          reply
            (Protocol.Rejected
               {
                 reason =
                   Printf.sprintf "frame of %d bytes over limit %d" n t.max_req;
               });
          loop ()
      | `Frame None -> ()
      | `Frame (Some p) ->
          (match Protocol.request_of_payload p with
          | Error m -> error ("malformed request: " ^ m)
          | Ok Protocol.Ping -> write_inline Protocol.Pong
          | Ok (Protocol.Stats { flight }) ->
              (* Inline, like Ping: scrapes must work under saturation
                 and must not count as served requests — a scrape is a
                 reading of the instruments, not a flight. *)
              let fl =
                if flight then Some (Flight.to_json (Flight.snapshot t.fl))
                else None
              in
              write_inline
                (Protocol.StatsSnapshot { snap = snapshot t; flight = fl })
          | Ok (Protocol.Register { bin }) ->
              (* Inline: pure store work, no pipeline state. A binary
                 larger than the whole store gets a typed refusal — the
                 connection (and daemon) keep going. *)
              let digest = Store.digest bin in
              reply
                (if Store.add t.store ~key:digest bin then
                   Protocol.Registered { digest }
                 else
                   Protocol.Rejected
                     {
                       reason =
                         Printf.sprintf
                           "binary of %d bytes exceeds store capacity %d"
                           (String.length bin)
                           (Store.max_bytes t.store);
                     })
          (* The frames' [jobs] field is reserved and ignored. *)
          | Ok (Protocol.Rewrite { approach; payload; _ }) ->
              handle `Rewrite ~approach payload
          | Ok (Protocol.Classify { approach; payload; _ }) ->
              handle `Classify ~approach payload);
          loop ()
    in
    loop ()
  with
  | Protocol.Malformed _ | Unix.Unix_error _ | End_of_file ->
      (* A torn or protocol-violating connection dies alone; the daemon
         and its other connections keep serving. *)
      ()

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if t.stopping then (try Unix.close fd with _ -> ())
        else begin
          Mutex.lock t.cm;
          t.conns <- fd :: t.conns;
          let th = Thread.create (fun () -> conn_loop t fd) () in
          t.conn_threads <- th :: t.conn_threads;
          Mutex.unlock t.cm
        end;
        if t.stopping then () else loop ()
    | exception Unix.Unix_error _ ->
        if t.stopping then ()
        else begin
          (* Spurious accept failure: back off briefly, keep accepting. *)
          Unix.sleepf 0.01;
          loop ()
        end
  in
  loop ()

let start ~path ?(bound = 64) ?(workers = 2) ?flight ?max_frame ?store_bytes
    ?memo_bytes () =
  (try Unix.unlink path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let registry = Metrics.create () in
  let t =
    {
      sock_path = path;
      listen_fd;
      sched = Scheduler.create ~bound ~workers ~metrics:registry ();
      store = Store.create ?max_bytes:store_bytes ();
      memo = Store.create ?max_bytes:memo_bytes ();
      run_memo = Store.create ?max_bytes:memo_bytes ();
      max_req =
        (match max_frame with
        | Some m -> max 1 (min m Protocol.max_frame)
        | None -> Protocol.max_frame);
      registry;
      fl = (match flight with Some f -> f | None -> Flight.create ());
      cm = Mutex.create ();
      conns = [];
      conn_threads = [];
      accept_thread = None;
      stopping = false;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop t =
  Mutex.lock t.cm;
  let already = t.stopping in
  t.stopping <- true;
  Mutex.unlock t.cm;
  if not already then begin
    (* Wake the accept loop portably: a blocked [Unix.accept] is not
       reliably interrupted by closing the fd from another thread, so
       poke it with a throwaway connection, then close. *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.sock_path) with _ -> ());
       Unix.close fd
     with _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* Drain queued requests so awaiting connections get their answers,
       then stop and join the executor domains. *)
    Scheduler.shutdown t.sched;
    Mutex.lock t.cm;
    let conns = t.conns and threads = t.conn_threads in
    Mutex.unlock t.cm;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      conns;
    List.iter Thread.join threads;
    (try Unix.unlink t.sock_path with _ -> ())
  end
