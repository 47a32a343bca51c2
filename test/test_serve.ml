(* Concurrency/isolation battery for the [icfg serve] daemon.

   Contracts under test (lib/service/*.mli):

   (a) response equivalence — a binary rewritten through the daemon is
       byte-identical to the one-shot in-process path, for every
       mode x ISA;
   (b) determinism — concurrent clients submitting a fixed corpus slice
       get identical per-request classifications regardless of client
       count and arrival interleaving;
   (c) backpressure — a queue bound of K with K+M in-flight requests
       yields exactly M typed Overloaded refusals and zero crashes, and
       the daemon keeps serving afterwards;
   (d) isolation — two concurrent requests' trace counter totals each
       equal their solo-run totals (per-domain ambient traces: no
       cross-request bleed);
   (e) crash containment — a request whose driver raises comes back as a
       typed Error (or Crashed classification) frame and the daemon
       lives; ditto malformed frames and unknown approaches;
   (f) history independence — an answer depends only on the request's
       kind, approach and input bytes, never on the requests before it. *)

open Icfg_isa
open Icfg_core
module Runner = Icfg_harness.Runner
module Matrix = Icfg_harness.Matrix
module Corpus = Icfg_workloads.Corpus
module Binfile = Icfg_obj.Binfile
module Protocol = Icfg_service.Protocol
module Scheduler = Icfg_service.Scheduler
module Server = Icfg_service.Server
module Client = Icfg_service.Client
module Sweep = Icfg_service.Sweep
module Flight = Icfg_service.Flight
module Baseline = Icfg_baselines.Baseline

let sock_counter = ref 0

let with_server ?bound ?workers ?flight ?max_frame ?store_bytes ?memo_bytes
    () f =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "icfg-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let srv =
    Server.start ~path ?bound ?workers ?flight ?max_frame ?store_bytes
      ?memo_bytes ()
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv path)

let first_bench arch =
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

let astr_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let counter snap name =
  Option.value ~default:0 (Metrics.find_counter snap name)

let response_label = function
  | Protocol.Pong -> "pong"
  | Protocol.Rewritten _ -> "rewritten"
  | Protocol.Refused _ -> "refused"
  | Protocol.Classified _ -> "classified"
  | Protocol.Error { message; _ } -> "error: " ^ message
  | Protocol.Overloaded -> "overloaded"
  | Protocol.StatsSnapshot _ -> "stats-snapshot"
  | Protocol.Registered _ -> "registered"
  | Protocol.NeedFull _ -> "need-full"
  | Protocol.Rejected { reason } -> "rejected: " ^ reason

(* ------------------------------------------------------------------ *)
(* Protocol codec round-trips                                          *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip () =
  let reqs =
    [
      Protocol.Ping;
      Protocol.Rewrite
        { approach = "ours/jt"; jobs = 4; payload = Protocol.Full "\x00\xffbin" };
      Protocol.Classify
        { approach = "srbi"; jobs = 0; payload = Protocol.Full "" };
      Protocol.Rewrite
        {
          approach = "ours/dir";
          jobs = 1;
          payload = Protocol.Ref (String.make 32 'a');
        };
      Protocol.Classify
        {
          approach = "ours/jt";
          jobs = 2;
          payload =
            Protocol.Patch
              {
                base = String.make 32 'b';
                total_len = 10;
                ranges = [ (0, "ab"); (5, "\x00\xff") ];
              };
        };
      Protocol.Rewrite
        {
          approach = "x";
          jobs = 0;
          payload = Protocol.Patch { base = ""; total_len = 0; ranges = [] };
        };
      Protocol.Register { bin = "container bytes" };
      Protocol.Stats { flight = false };
      Protocol.Stats { flight = true };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.request_of_payload (Protocol.request_to_payload r) with
      | Ok r' -> Alcotest.(check bool) "request round-trip" true (r = r')
      | Error m -> Alcotest.failf "request decode failed: %s" m)
    reqs;
  let resps =
    [
      Protocol.Pong;
      Protocol.Rewritten
        {
          bin = String.make 64 '\x7f';
          digest = String.make 32 'c';
          counters = [ ("a", 1); ("b", -2) ];
        };
      Protocol.Refused { reason = "non-PIE"; digest = ""; counters = [] };
      Protocol.Classified
        {
          cls = Matrix.Refused "feature/non-pie";
          ns = 1234.5;
          digest = String.make 32 'd';
          counters = [ ("layout.pinned", 9) ];
        };
      Protocol.Classified
        { cls = Matrix.Verified; ns = 0.; digest = ""; counters = [] };
      Protocol.Registered { digest = String.make 32 'e' };
      Protocol.NeedFull { digest = String.make 32 'f' };
      Protocol.Rejected { reason = "frame of 9 bytes over limit 8" };
      Protocol.Error
        { message = "boom"; counters = [ ("parse.bytes", 12) ] };
      Protocol.Error { message = ""; counters = [] };
      Protocol.Overloaded;
      Protocol.StatsSnapshot { snap = Metrics.empty; flight = None };
      Protocol.StatsSnapshot
        {
          snap =
            {
              Metrics.s_counters = [ ("serve.requests", 7) ];
              s_gauges = [ ("sched.queue_depth", 2) ];
              s_histos =
                [
                  ( "request.latency:ours/jt:rewritten",
                    {
                      Metrics.h_count = 3;
                      h_sum = 4096;
                      h_buckets = [ (0, 1); (10, 2) ];
                    } );
                ];
            };
          flight = Some "{\"schema\": \"icfg-flight/1\"}";
        };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.response_of_payload (Protocol.response_to_payload r) with
      | Ok r' -> Alcotest.(check bool) "response round-trip" true (r = r')
      | Error m -> Alcotest.failf "response decode failed: %s" m)
    resps;
  (* Malformed payloads decode to Error, never raise. *)
  List.iter
    (fun p ->
      match Protocol.request_of_payload p with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "garbage accepted as request")
    [ ""; "bogus"; "isrv1"; "isrv1\xff"; "isrv1\x02\x04\x00\x00\x00ab" ];
  (* A payload kind byte the grammar doesn't know decodes to Error, not a
     crash: corrupt the kind byte of an otherwise valid Rewrite frame. *)
  (let p =
     Protocol.request_to_payload
       (Protocol.Rewrite
          { approach = "x"; jobs = 1; payload = Protocol.Full "y" })
   in
   let b = Bytes.of_string p in
   let kind_pos = String.length Protocol.magic + 1 + (4 + 1) + 4 in
   Alcotest.(check char) "kind byte located" '\x00' (Bytes.get b kind_pos);
   Bytes.set b kind_pos '\x07';
   match Protocol.request_of_payload (Bytes.to_string b) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown payload kind accepted");
  (* cls codec is total on the wire forms and rejects junk. *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        "cls round-trip" true
        (Matrix.cls_of_string (Matrix.cls_to_string c) = Some c))
    [
      Matrix.Verified;
      Matrix.Diverged;
      Matrix.Refused "tramp/trap";
      Matrix.Crashed "Not_encodable(\"x\")";
    ];
  Alcotest.(check bool)
    "junk cls rejected" true
    (Matrix.cls_of_string "meh" = None)

(* ------------------------------------------------------------------ *)
(* Scheduler: bound, pause/resume, shutdown drain                      *)
(* ------------------------------------------------------------------ *)

let scheduler_unit () =
  let s = Scheduler.create ~bound:2 ~workers:1 () in
  Scheduler.pause s;
  let t1 = Scheduler.submit s (fun () -> 1) in
  let t2 = Scheduler.submit s (fun () -> 2) in
  let t3 = Scheduler.submit s (fun () -> 3) in
  Alcotest.(check bool) "two accepted" true (t1 <> None && t2 <> None);
  Alcotest.(check bool) "third refused at bound" true (t3 = None);
  Alcotest.(check int) "pending counts queued" 2 (Scheduler.pending s);
  Scheduler.resume s;
  (match (t1, t2) with
  | Some a, Some b ->
      Alcotest.(check int) "first result" 1 (Scheduler.await a);
      Alcotest.(check int) "second result" 2 (Scheduler.await b)
  | _ -> Alcotest.fail "accepted tickets missing");
  (* Shutdown drains accepted work and joins; later submits refuse. *)
  Scheduler.pause s;
  let t4 = Scheduler.submit s (fun () -> 4) in
  Scheduler.shutdown s;
  (match t4 with
  | Some t -> Alcotest.(check int) "drained on shutdown" 4 (Scheduler.await t)
  | None -> Alcotest.fail "submit before shutdown refused");
  Alcotest.(check bool)
    "submit after shutdown refused" true
    (Scheduler.submit s (fun () -> 5) = None);
  (* A raising job re-raises at await, not in the executor. *)
  let s2 = Scheduler.create ~bound:2 ~workers:1 () in
  (match Scheduler.submit s2 (fun () -> failwith "job boom") with
  | Some t -> (
      match Scheduler.await t with
      | _ -> Alcotest.fail "raising job returned"
      | exception Failure m -> Alcotest.(check string) "re-raised" "job boom" m)
  | None -> Alcotest.fail "submit refused");
  Scheduler.shutdown s2

(* ------------------------------------------------------------------ *)
(* (a) response equivalence: daemon == one-shot, every mode x ISA      *)
(* ------------------------------------------------------------------ *)

let response_equivalence () =
  with_server ~workers:2 () @@ fun _srv path ->
  Client.with_connection path @@ fun c ->
  List.iter
    (fun arch ->
      let bin = first_bench arch in
      List.iter
        (fun mode ->
          let what =
            Printf.sprintf "%s/%s" (Arch.name arch) (Mode.name mode)
          in
          (* The daemon path: roster driver behind the wire protocol. *)
          let daemon_bytes =
            match Client.rewrite c ~approach:("ours/" ^ Mode.name mode) bin with
            | Ok (Protocol.Rewritten { bin; _ }) -> bin
            | Ok r -> Alcotest.failf "%s: daemon said %s" what (response_label r)
            | Error m -> Alcotest.failf "%s: transport error %s" what m
          in
          (* The one-shot path: same options, no daemon, no cache. *)
          let rw =
            Runner.rewrite
              ~options:{ Rewriter.default_options with Rewriter.mode }
              bin
          in
          let oneshot_bytes =
            Bytes.to_string (Binfile.to_bytes rw.Rewriter.rw_binary)
          in
          Alcotest.(check bool)
            (what ^ ": daemon bytes == one-shot bytes")
            true
            (daemon_bytes = oneshot_bytes))
        Mode.all)
    Arch.all

(* ------------------------------------------------------------------ *)
(* (b) determinism under concurrent clients                            *)
(* ------------------------------------------------------------------ *)

let strip (r : Matrix.row) = { r with Matrix.row_p50_ns = 0.; row_p95_ns = 0. }

let concurrent_determinism () =
  let seed = 11 and count = 6 in
  let d1 = Sweep.run ~seed ~count ~clients:1 () in
  let d4 = Sweep.run ~seed ~count ~clients:4 () in
  let m = Matrix.run ~seed ~count () in
  Alcotest.(check int) "no transport errors (serial)" 0 d1.Sweep.sw_errors;
  Alcotest.(check int) "no transport errors (concurrent)" 0 d4.Sweep.sw_errors;
  Alcotest.(check int) "no refusals (serial)" 0 d1.Sweep.sw_overloaded;
  Alcotest.(check int) "no refusals (concurrent)" 0 d4.Sweep.sw_overloaded;
  let r1 = List.map strip d1.Sweep.sw_rows in
  let r4 = List.map strip d4.Sweep.sw_rows in
  let rm = List.map strip m.Matrix.m_rows in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: 1 client == 4 clients" a.Matrix.row_approach)
        true (a = b))
    r1 r4;
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: daemon == in-process" a.Matrix.row_approach)
        true (a = b))
    r4 rm

(* ------------------------------------------------------------------ *)
(* (c) backpressure: K-bounded queue, K+M in-flight, exactly M refused *)
(* ------------------------------------------------------------------ *)

let backpressure () =
  let k = 3 and m = 2 in
  let bin = first_bench Arch.X86_64 in
  with_server ~bound:k ~workers:1 () @@ fun srv path ->
  (* Park the executor so the queue fills deterministically: K requests
     queue, the next M find the queue at its bound. *)
  Scheduler.pause (Server.scheduler srv);
  let results = Array.make (k + m) None in
  let threads =
    List.init (k + m) (fun i ->
        Thread.create
          (fun () ->
            Client.with_connection path @@ fun c ->
            results.(i) <- Some (Client.rewrite c ~approach:"ours/jt" bin))
          ())
  in
  (* Wait until all K+M requests have reached the daemon: K parked in
     the queue, M already refused. *)
  let deadline = Unix.gettimeofday () +. 30. in
  let overloaded () = counter (Server.snapshot srv) "serve.overloaded" in
  let rec settle () =
    if Scheduler.pending (Server.scheduler srv) = k && overloaded () = m then
      ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "queue never settled: pending=%d overloaded=%d"
        (Scheduler.pending (Server.scheduler srv))
        (overloaded ())
    else begin
      Thread.delay 0.01;
      settle ()
    end
  in
  settle ();
  Scheduler.resume (Server.scheduler srv);
  List.iter Thread.join threads;
  let count pred = Array.fold_left (fun n r -> if pred r then n + 1 else n) 0 results in
  Alcotest.(check int) "exactly M overloaded" m
    (count (function Some (Ok Protocol.Overloaded) -> true | _ -> false));
  Alcotest.(check int) "exactly K rewritten" k
    (count (function Some (Ok (Protocol.Rewritten _)) -> true | _ -> false));
  let snap = Server.snapshot srv in
  Alcotest.(check int) "zero error responses" 0 (counter snap "serve.errors");
  Alcotest.(check int) "overloaded stat" m (counter snap "serve.overloaded");
  (* The refusals cost nothing: the daemon is still serving. *)
  Client.with_connection path @@ fun c ->
  (match Client.ping c with
  | Ok Protocol.Pong -> ()
  | r ->
      Alcotest.failf "daemon not serving after refusals: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  match Client.rewrite c ~approach:"ours/jt" bin with
  | Ok (Protocol.Rewritten _) -> ()
  | r ->
      Alcotest.failf "rewrite after refusals: %s"
        (match r with Ok x -> response_label x | Error m -> m)

(* ------------------------------------------------------------------ *)
(* (d) isolation: concurrent requests' counters == solo totals         *)
(* ------------------------------------------------------------------ *)

let solo_counters bin =
  let tr = Trace.create () in
  Trace.with_current tr (fun () -> ignore (Runner.drive ~approach:"ours/jt" bin));
  Trace.counters tr

let isolation () =
  (* Two binaries of different ISAs, rewritten concurrently: any
     difference from the solo totals is trace bleed. *)
  let bin_a = first_bench Arch.X86_64 in
  let bin_b = first_bench Arch.Aarch64 in
  let solo_a = solo_counters bin_a and solo_b = solo_counters bin_b in
  Alcotest.(check bool) "solo counters nonempty" true (solo_a <> []);
  with_server ~workers:2 () @@ fun _srv path ->
  let got = [| []; [] |] in
  let request i bin =
    Thread.create
      (fun () ->
        Client.with_connection path @@ fun c ->
        match Client.rewrite c ~approach:"ours/jt" bin with
        | Ok (Protocol.Rewritten { counters; _ }) -> got.(i) <- counters
        | r ->
            Alcotest.failf "request %d: %s" i
              (match r with Ok x -> response_label x | Error m -> m))
      ()
  in
  let ta = request 0 bin_a and tb = request 1 bin_b in
  Thread.join ta;
  Thread.join tb;
  (* The daemon adds its own [serve.*] trace counters (wire-copy savings)
     on top of the pipeline's; strip them before comparing to the solo
     in-process totals. *)
  let strip_serve =
    List.filter (fun (k, _) ->
        not (String.length k >= 6 && String.sub k 0 6 = "serve."))
  in
  Alcotest.(check bool)
    "request A counters == solo A totals" true (strip_serve got.(0) = solo_a);
  Alcotest.(check bool)
    "request B counters == solo B totals" true (strip_serve got.(1) = solo_b)

(* ------------------------------------------------------------------ *)
(* (e) crash containment: raising drivers, garbage frames, bad names   *)
(* ------------------------------------------------------------------ *)

let crash_containment () =
  (* Corpus seed 7, entry 8 (c0008-huge-jt) defeats insn-patching's
     encoder outright — self-validate that the driver still raises
     in-process, so this test fails loudly if the corpus shifts. *)
  let entries = Corpus.generate ~seed:7 ~count:9 in
  let crasher = Corpus.build (List.nth entries 8) in
  (match Runner.drive ~approach:"insn-patching" crasher with
  | exception _ -> ()
  | _ -> Alcotest.fail "expected insn-patching to raise on c0008-huge-jt");
  with_server ~workers:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  (* A raising driver is a typed Error frame... *)
  (match Client.rewrite c ~approach:"insn-patching" crasher with
  | Ok (Protocol.Error _) -> ()
  | r ->
      Alcotest.failf "raising driver: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* ...and through the Matrix machinery, a typed Crashed cell. *)
  (match Client.classify c ~approach:"insn-patching" crasher with
  | Ok (Protocol.Classified { cls = Matrix.Crashed _; _ }) -> ()
  | r ->
      Alcotest.failf "raising driver (classify): %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* Unknown approach: typed error, not a dead daemon. *)
  (match Client.rewrite c ~approach:"no-such-rewriter" crasher with
  | Ok (Protocol.Error _) -> ()
  | r ->
      Alcotest.failf "unknown approach: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* Garbage binary bytes: typed error. *)
  (match
     Client.call c
       (Protocol.Rewrite
          {
            approach = "ours/jt";
            jobs = 1;
            payload = Protocol.Full "not a binfile";
          })
   with
  | Ok (Protocol.Error _) -> ()
  | r ->
      Alcotest.failf "garbage binfile: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* The daemon survived all of it and still rewrites. *)
  (match Client.rewrite c ~approach:"ours/jt" crasher with
  | Ok (Protocol.Rewritten _) -> ()
  | r ->
      Alcotest.failf "daemon not serving after crashes: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  Alcotest.(check bool) "errors were counted" true
    (counter (Server.snapshot srv) "serve.errors" >= 3)

(* A small upload that declares a 1 GiB zero tail is refused at decode
   with a typed Error, before anything could materialise the tail, and
   the daemon keeps serving. *)
let tail_bomb () =
  let bin = first_bench Arch.X86_64 in
  let bomb =
    Icfg_obj.Binary.add_section bin
      (Icfg_obj.Section.make ~name:".bomb" ~vaddr:0x40000000
         ~perm:Icfg_obj.Section.r_w ~size:(1 lsl 30) Bytes.empty)
  in
  with_server ~workers:1 () @@ fun _srv path ->
  Client.with_connection path @@ fun c ->
  (match Client.rewrite c ~approach:"ours/jt" bomb with
  | Ok (Protocol.Error _) -> ()
  | r ->
      Alcotest.failf "1 GiB tail: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  match Client.rewrite c ~approach:"ours/jt" bin with
  | Ok (Protocol.Rewritten _) -> ()
  | r ->
      Alcotest.failf "daemon not serving after a tail bomb: %s"
        (match r with Ok x -> response_label x | Error m -> m)

(* A garbage *frame* (valid length prefix, junk payload) gets a typed
   error response and the connection keeps working. *)
let malformed_frame () =
  let bin = first_bench Arch.X86_64 in
  with_server ~workers:1 () @@ fun _srv path ->
  let c = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let fd = Client.fd c in
  Protocol.write_frame fd "complete nonsense";
  (match Protocol.read_frame fd with
  | Some p -> (
      match Protocol.response_of_payload p with
      | Ok (Protocol.Error _) -> ()
      | Ok r -> Alcotest.failf "garbage frame: %s" (response_label r)
      | Error m -> Alcotest.failf "garbage frame: bad response: %s" m)
  | None -> Alcotest.fail "server closed connection on garbage frame");
  match Client.rewrite c ~approach:"ours/jt" bin with
  | Ok (Protocol.Rewritten _) -> ()
  | r ->
      Alcotest.failf "connection dead after garbage frame: %s"
        (match r with Ok x -> response_label x | Error m -> m)

(* ------------------------------------------------------------------ *)
(* Telemetry: Stats totals == served stream, flight recorder, and the  *)
(* observation-only contract                                           *)
(* ------------------------------------------------------------------ *)

let scrape ?(flight = false) path =
  Client.with_connection path @@ fun c ->
  match Client.stats c ~flight () with
  | Ok (Protocol.StatsSnapshot { snap; flight }) -> (snap, flight)
  | r ->
      Alcotest.failf "stats scrape: %s"
        (match r with Ok x -> response_label x | Error m -> m)

(* The daemon's aggregated totals must exactly equal the served stream:
   serve.requests and the per-approach × per-outcome latency histogram
   counts are pinned against the requests we just sent, and the trace.*
   counter totals against the sum of the per-request counter snapshots
   the responses themselves carried.
   Scrapes must not show up anywhere: a scrape is a reading of the
   instruments, not a flight. *)
let stats_totals () =
  let bin_a = first_bench Arch.X86_64 in
  let bin_b = first_bench Arch.Aarch64 in
  (* A one-byte memo refuses every response, so the repeat below is
     scheduled like the rest: this test pins the telemetry of *scheduled*
     requests; the memo fast path (which folds no trace) has its own
     test. *)
  with_server ~workers:2 ~memo_bytes:1 () @@ fun _srv path ->
  let snap0, _ = scrape path in
  Alcotest.(check int) "fresh daemon: no requests" 0
    (counter snap0 "serve.requests");
  Client.with_connection path @@ fun c ->
  let sum = Hashtbl.create 32 in
  let fold counters =
    List.iter
      (fun (k, v) ->
        Hashtbl.replace sum k (v + Option.value ~default:0 (Hashtbl.find_opt sum k)))
      counters
  in
  let rewrite bin =
    match Client.rewrite c ~approach:"ours/jt" bin with
    | Ok (Protocol.Rewritten { counters; _ }) -> fold counters
    | r ->
        Alcotest.failf "rewrite: %s"
          (match r with Ok x -> response_label x | Error m -> m)
  in
  (* Three rewrites (the repeat finds the first run's layout slot — its
     layout counters differ from the first's, which is exactly why we sum
     what each response reported rather than 3 × solo). *)
  rewrite bin_a;
  rewrite bin_b;
  rewrite bin_a;
  let cls =
    match Client.classify c ~approach:"ours/jt" bin_a with
    | Ok (Protocol.Classified { cls; counters; _ }) ->
        fold counters;
        cls
    | r ->
        Alcotest.failf "classify: %s"
          (match r with Ok x -> response_label x | Error m -> m)
  in
  let snap, _ = scrape path in
  Alcotest.(check int) "serve.requests == served stream" 4
    (counter snap "serve.requests");
  Alcotest.(check int) "no errors" 0 (counter snap "serve.errors");
  Alcotest.(check int) "rewritten outcomes" 3
    (counter snap "serve.responses:rewritten");
  (match Metrics.find_histo snap "request.latency:ours/jt:rewritten" with
  | Some h ->
      Alcotest.(check int) "rewrite latency histogram count" 3
        h.Metrics.h_count;
      Alcotest.(check int) "bucket counts sum to h_count" h.Metrics.h_count
        (List.fold_left (fun a (_, n) -> a + n) 0 h.Metrics.h_buckets)
  | None -> Alcotest.fail "missing rewrite latency histogram");
  let cls_kind =
    match Matrix.cls_to_string cls with
    | s -> (
        match String.index_opt s ':' with
        | Some i -> String.sub s 0 i
        | None -> s)
  in
  (match
     Metrics.find_histo snap
       ("request.latency:ours/jt:classified-" ^ cls_kind)
   with
  | Some h ->
      Alcotest.(check int) "classify latency histogram count" 1
        h.Metrics.h_count
  | None -> Alcotest.fail "missing classify latency histogram");
  (* trace.* totals == sum of the per-request counters the responses
     carried: the registry aggregated exactly the served stream. *)
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check int)
        (Printf.sprintf "trace.%s == sum of response counters" k)
        v
        (counter snap ("trace." ^ k)))
    sum;
  Alcotest.(check bool) "stream recorded some counters" true
    (Hashtbl.length sum > 0);
  (* Scheduler telemetry saw the four scheduled jobs, and nothing is
     left queued or running after the last response. *)
  Alcotest.(check int) "sched.jobs == scheduled requests" 4
    (counter snap "sched.jobs");
  (match Metrics.find_histo snap "sched.queue_wait" with
  | Some h -> Alcotest.(check int) "queue-wait observations" 4 h.Metrics.h_count
  | None -> Alcotest.fail "missing queue-wait histogram");
  Alcotest.(check int) "drained: queue_depth gauge" 0
    (Option.value ~default:0 (Metrics.find_gauge snap "sched.queue_depth"));
  Alcotest.(check int) "drained: in_flight gauge" 0
    (Option.value ~default:0 (Metrics.find_gauge snap "sched.in_flight"));
  (* Scrapes are invisible: this is the third scrape and the registry
     still reports the same served stream. *)
  let snap', _ = scrape path in
  Alcotest.(check int) "scrapes don't count as requests" 4
    (counter snap' "serve.requests");
  Alcotest.(check int) "scrapes don't error" 0 (counter snap' "serve.errors")

(* The flight recorder retains the full trace of exactly the errored
   request, ranks the slowest, and keeps its ring bounded. *)
let flight_recorder () =
  let entries = Corpus.generate ~seed:7 ~count:9 in
  let crasher = Corpus.build (List.nth entries 8) in
  let bin = first_bench Arch.X86_64 in
  let fl = Flight.create ~ring:4 ~slowest:2 ~errors:4 () in
  with_server ~workers:1 ~flight:fl () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  let rewrite approach b =
    match Client.rewrite c ~approach b with r -> r
  in
  (match rewrite "ours/jt" bin with
  | Ok (Protocol.Rewritten _) -> ()
  | r ->
      Alcotest.failf "warmup rewrite: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* Satellite: the Error frame carries the request's counter snapshot
     up to the crash, like every success frame. *)
  (match rewrite "insn-patching" crasher with
  | Ok (Protocol.Error { counters; _ }) ->
      Alcotest.(check bool) "Error response carries counters" true
        (counters <> [])
  | r ->
      Alcotest.failf "crasher: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  List.iter
    (fun _ ->
      match rewrite "ours/jt" bin with
      | Ok (Protocol.Rewritten _) -> ()
      | r ->
          Alcotest.failf "filler rewrite: %s"
            (match r with Ok x -> response_label x | Error m -> m))
    [ (); (); (); () ];
  let snap = Flight.snapshot (Server.flight srv) in
  Alcotest.(check int) "all requests recorded" 6 snap.Flight.fl_recorded;
  Alcotest.(check int) "ring stays bounded" 4
    (List.length snap.Flight.fl_recent);
  Alcotest.(check bool) "slowest stays bounded" true
    (List.length snap.Flight.fl_slowest <= 2);
  (match snap.Flight.fl_errors with
  | [ (s, trace) ] ->
      Alcotest.(check string) "errored approach" "insn-patching"
        s.Flight.fs_approach;
      Alcotest.(check string) "errored outcome" "error" s.Flight.fs_outcome;
      Alcotest.(check bool) "errored flag" true s.Flight.fs_errored;
      Alcotest.(check bool) "full trace retained" true
        (String.length trace > 0
        && String.sub trace 0 1 = "{"
        (* the retained document is the request's icfg-trace/1 dump *)
        && astr_contains trace "icfg-trace/1")
  | l ->
      Alcotest.failf "expected exactly the errored request, got %d"
        (List.length l));
  (* The same dump travels the wire on Stats{flight=true}. *)
  let _, fljson = scrape ~flight:true path in
  match fljson with
  | Some f ->
      Alcotest.(check bool) "wire dump is icfg-flight/1" true
        (astr_contains f "icfg-flight/1");
      Alcotest.(check bool) "wire dump names the errored approach" true
        (astr_contains f "insn-patching")
  | None -> Alcotest.fail "Stats{flight=true} carried no dump"

(* Observation-only: the responses a client sees are byte-identical
   whether or not anyone is scraping the daemon. *)
let observation_only () =
  let bin_a = first_bench Arch.X86_64 in
  let bin_b = first_bench Arch.Aarch64 in
  let serve_stream ~scraped =
    with_server ~workers:1 () @@ fun _srv path ->
    Client.with_connection path @@ fun c ->
    List.map
      (fun b ->
        if scraped then ignore (scrape ~flight:true path);
        let r =
          match Client.rewrite c ~approach:"ours/jt" b with
          | Ok r -> Protocol.response_to_payload r
          | Error m -> Alcotest.failf "transport: %s" m
        in
        if scraped then ignore (scrape path);
        r)
      [ bin_a; bin_b; bin_a ]
  in
  let quiet = serve_stream ~scraped:false in
  let watched = serve_stream ~scraped:true in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "response %d byte-identical under scraping" i)
        true (a = b))
    (List.combine quiet watched)

(* ------------------------------------------------------------------ *)
(* Incremental protocol: sparse patches, the binary store, the memo    *)
(* ------------------------------------------------------------------ *)

(* Pure codec-level edge cases for [apply_patch]/[diff_ranges]: empty
   deltas, truncation/extension via total_len alone, out-of-bounds and
   overlapping ranges as typed Errors, and the round-trip law. *)
let patch_codec () =
  let base = "hello, world of binaries" in
  let apply ~base ~total_len ranges =
    Protocol.apply_patch ~base ~total_len ranges
  in
  let expect_ok what = function
    | Stdlib.Ok s -> s
    | Stdlib.Error m -> Alcotest.failf "%s: unexpected Error %s" what m
  in
  let expect_err what = function
    | Stdlib.Ok _ -> Alcotest.failf "%s: bad patch accepted" what
    | Stdlib.Error _ -> ()
  in
  Alcotest.(check string) "empty delta is identity" base
    (expect_ok "identity" (apply ~base ~total_len:(String.length base) []));
  Alcotest.(check string) "total_len truncates" "hello"
    (expect_ok "truncate" (apply ~base ~total_len:5 []));
  Alcotest.(check string) "total_len zero-extends" "ab\x00\x00"
    (expect_ok "extend" (apply ~base:"ab" ~total_len:4 []));
  Alcotest.(check string) "in-range blit" "HELLO, world of binaries"
    (expect_ok "blit"
       (apply ~base ~total_len:(String.length base) [ (0, "HELLO") ]));
  expect_err "negative offset" (apply ~base ~total_len:5 [ (-1, "x") ]);
  expect_err "range past total_len" (apply ~base ~total_len:5 [ (4, "xy") ]);
  expect_err "overlapping ranges"
    (apply ~base ~total_len:10 [ (0, "abc"); (2, "def") ]);
  expect_err "negative total_len" (apply ~base ~total_len:(-1) []);
  Alcotest.(check bool) "identical strings diff to empty" true
    (Protocol.diff_ranges ~base "hello, world of binaries" = []);
  (* Round-trip law: apply (diff base target) base == target, including
     pure truncations/extensions and disjoint multi-site edits. *)
  List.iter
    (fun (b, target) ->
      let ranges = Protocol.diff_ranges ~base:b target in
      let got =
        expect_ok "round-trip"
          (apply ~base:b ~total_len:(String.length target) ranges)
      in
      Alcotest.(check string) "diff/apply round-trip" target got)
    [
      ("", "");
      ("", "abc");
      ("abc", "");
      ("abcdef", "abcdef");
      ("abcdef", "abcdeX");
      ("abcdef", "Xbcdef");
      ("short", "a much longer replacement string");
      ("a much longer base string than the target", "tiny");
      ( String.make 400 'a',
        String.make 100 'a' ^ "EDIT" ^ String.make 196 'a' ^ "TAIL"
        ^ String.make 100 'a' );
    ]

(* The daemon-side incremental protocol: Ref before registration is a
   typed NeedFull; after registration Ref and Patch rewrites are
   byte-identical to full uploads; an unreconstructible patch is a typed
   Error; eviction turns Refs into NeedFull and the client-side fallback
   heals the store — and through all of it the daemon keeps serving. *)
let incremental_protocol () =
  let bin_a = first_bench Arch.X86_64 in
  let str_a = Binfile.to_string bin_a in
  let dig_a = Icfg_service.Store.digest str_a in
  let edited =
    match Runner.perturb_function (Runner.parse bin_a) with
    | Some (b, _fname) -> b
    | None -> Alcotest.fail "no perturbable function in first bench"
  in
  let str_e = Binfile.to_string edited in
  with_server ~workers:1 () @@ fun _srv path ->
  Client.with_connection path @@ fun c ->
  (* Ref before any upload: typed NeedFull naming the digest. *)
  (match Client.rewrite_payload c ~approach:"ours/jt" (Protocol.Ref dig_a) with
  | Ok (Protocol.NeedFull { digest }) ->
      Alcotest.(check string) "NeedFull names the digest" dig_a digest
  | r ->
      Alcotest.failf "unregistered ref: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (match Client.register_bytes c str_a with
  | Ok (Protocol.Registered { digest }) ->
      Alcotest.(check string) "Registered echoes the digest" dig_a digest
  | r ->
      Alcotest.failf "register: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  let rewritten what = function
    | Ok (Protocol.Rewritten { bin; _ }) -> bin
    | r ->
        Alcotest.failf "%s: %s" what
          (match r with Ok x -> response_label x | Error m -> m)
  in
  let by_ref =
    rewritten "by-ref rewrite"
      (Client.rewrite_payload c ~approach:"ours/jt" (Protocol.Ref dig_a))
  in
  let full =
    rewritten "full rewrite" (Client.rewrite c ~approach:"ours/jt" bin_a)
  in
  Alcotest.(check bool) "ref rewrite == full rewrite bytes" true
    (by_ref = full);
  (* A sparse patch of a one-function edit reconstructs and rewrites
     byte-identically to uploading the edited binary whole. *)
  let patch =
    Protocol.Patch
      {
        base = dig_a;
        total_len = String.length str_e;
        ranges = Protocol.diff_ranges ~base:str_a str_e;
      }
  in
  let by_patch =
    rewritten "patched rewrite"
      (Client.rewrite_payload c ~approach:"ours/jt" patch)
  in
  let full_e =
    rewritten "full edited rewrite"
      (Client.rewrite c ~approach:"ours/jt" edited)
  in
  Alcotest.(check bool) "patched rewrite == full edited rewrite" true
    (by_patch = full_e);
  (* An unreconstructible patch (overlap, OOB) is a typed Error — and the
     connection keeps working afterwards. *)
  List.iter
    (fun (what, ranges) ->
      match
        Client.rewrite_payload c ~approach:"ours/jt"
          (Protocol.Patch { base = dig_a; total_len = 16; ranges })
      with
      | Ok (Protocol.Error _) -> ()
      | r ->
          Alcotest.failf "%s: %s" what
            (match r with Ok x -> response_label x | Error m -> m))
    [
      ("overlapping patch", [ (0, "abc"); (1, "xyz") ]);
      ("out-of-bounds patch", [ (12, "abcdefgh") ]);
    ];
  (match Client.ping c with
  | Ok Protocol.Pong -> ()
  | _ -> Alcotest.fail "daemon dead after bad patches")

(* Eviction: a store sized for one binary forgets the older of two
   registrations; the client-side [~fallback] turns the NeedFull into a
   full upload that re-registers the bytes, healing later Refs. *)
let eviction_needfull_heals () =
  let bin_a = first_bench Arch.X86_64 in
  let bin_b = first_bench Arch.Aarch64 in
  let str_a = Binfile.to_string bin_a in
  let str_b = Binfile.to_string bin_b in
  let dig_a = Icfg_service.Store.digest str_a in
  let store_bytes = max (String.length str_a) (String.length str_b) in
  with_server ~workers:1 ~store_bytes () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  let registered what r =
    match r with
    | Ok (Protocol.Registered _) -> ()
    | r ->
        Alcotest.failf "%s: %s" what
          (match r with Ok x -> response_label x | Error m -> m)
  in
  registered "register A" (Client.register_bytes c str_a);
  registered "register B (evicts A)" (Client.register_bytes c str_b);
  (match
     Client.classify_payload c ~approach:"ours/jt" (Protocol.Ref dig_a)
   with
  | Ok (Protocol.NeedFull { digest }) ->
      Alcotest.(check string) "evicted base answers NeedFull" dig_a digest
  | r ->
      Alcotest.failf "evicted ref: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* The transparent fallback: same Ref, now with the bytes on hand. *)
  (match
     Client.classify_payload c ~approach:"ours/jt" ~fallback:str_a
       (Protocol.Ref dig_a)
   with
  | Ok (Protocol.Classified _) -> ()
  | r ->
      Alcotest.failf "fallback classify: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  (* The fallback's full upload re-registered A: the same Ref now works
     without any bytes on hand. *)
  (match
     Client.classify_payload c ~approach:"ours/jt" (Protocol.Ref dig_a)
   with
  | Ok (Protocol.Classified _) -> ()
  | r ->
      Alcotest.failf "healed ref: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  let snap = Server.snapshot srv in
  Alcotest.(check int) "two NeedFull responses booked" 2
    (counter snap "serve.needfull");
  Alcotest.(check bool) "store eviction booked" true
    (counter snap "store.evict_lru" >= 1)

(* Bounds: an over-limit frame and an over-capacity Register both get
   typed [Rejected] responses — the connection survives both. *)
let bounds_rejection () =
  let bin = first_bench Arch.X86_64 in
  let str = Binfile.to_string bin in
  (* A daemon whose frame limit is far below the binary. *)
  with_server ~workers:1 ~max_frame:1024 () (fun _srv path ->
      Client.with_connection path @@ fun c ->
      Alcotest.(check bool) "test binary is over the frame limit" true
        (String.length str > 1024);
      (match Client.rewrite c ~approach:"ours/jt" bin with
      | Ok (Protocol.Rejected { reason }) ->
          Alcotest.(check bool) "rejection names the limit" true
            (astr_contains reason "1024")
      | r ->
          Alcotest.failf "oversized frame: %s"
            (match r with Ok x -> response_label x | Error m -> m));
      match Client.ping c with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "connection dead after oversized frame");
  (* A daemon whose whole store is smaller than the upload. *)
  with_server ~workers:1 ~store_bytes:100 () (fun srv path ->
      Client.with_connection path @@ fun c ->
      (match Client.register_bytes c str with
      | Ok (Protocol.Rejected { reason }) ->
          Alcotest.(check bool) "rejection names the capacity" true
            (astr_contains reason "store capacity")
      | r ->
          Alcotest.failf "over-capacity register: %s"
            (match r with Ok x -> response_label x | Error m -> m));
      (match Client.ping c with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "connection dead after rejected register");
      let snap = Server.snapshot srv in
      Alcotest.(check int) "store.rejected booked" 1
        (counter snap "store.rejected");
      Alcotest.(check bool) "serve.rejected booked" true
        (counter snap "serve.rejected" >= 1))

(* Whole-response memoization: a byte-identical replay answers with the
   stored bytes of the first pipeline run — same wire bytes, no
   scheduler traffic — and equals what a fresh pipeline would produce. *)
let response_memo () =
  let bin = first_bench Arch.X86_64 in
  let first_payload path =
    Client.with_connection path @@ fun c ->
    match Client.rewrite c ~approach:"ours/jt" bin with
    | Ok r -> Protocol.response_to_payload r
    | Error m -> Alcotest.failf "transport: %s" m
  in
  with_server ~workers:1 () @@ fun srv path ->
  let p1 = first_payload path in
  let snap1 = Server.snapshot srv in
  let p2 = first_payload path in
  let snap2 = Server.snapshot srv in
  Alcotest.(check bool) "replay is byte-identical" true (p1 = p2);
  Alcotest.(check int) "first request missed the memo" 0
    (counter snap1 "response_cache.hit");
  Alcotest.(check int) "replay hit the memo" 1
    (counter snap2 "response_cache.hit");
  Alcotest.(check int) "replay never entered the scheduler"
    (counter snap1 "sched.jobs")
    (counter snap2 "sched.jobs");
  Alcotest.(check int) "both count as served requests" 2
    (counter snap2 "serve.requests");
  Alcotest.(check int) "both book the rewritten outcome" 2
    (counter snap2 "serve.responses:rewritten");
  (* Observation-only: a fresh daemon's pipeline-computed response equals
     the memoized replay byte-for-byte, the per-request counters the
     payload embeds included. *)
  let p3 = with_server ~workers:1 () (fun _srv2 path2 -> first_payload path2) in
  Alcotest.(check bool) "memoized replay == fresh pipeline response" true
    (p2 = p3)

(* The one answer path: every frame the daemon writes, Pong and
   StatsSnapshot aside, is booked once in [serve.responses:*], and each
   [serve.<kind>] total equals its [serve.responses:<kind>]. Drives every
   answer kind: a pipeline rewrite and its memo replay, Overloaded, a
   malformed frame, a bad patch, NeedFull, an oversized frame and
   Register. *)
let every_answer_booked () =
  let bin = first_bench Arch.X86_64 in
  let max_frame = 1 lsl 16 in
  Alcotest.(check bool) "test binary fits the frame limit" true
    (String.length (Binfile.to_string bin) < max_frame - 256);
  with_server ~bound:1 ~workers:1 ~max_frame () @@ fun srv path ->
  let answered = ref 0 in
  let expect what kind r =
    incr answered;
    match r with
    | Ok resp ->
        let l = response_label resp in
        let k = List.hd (String.split_on_char ':' l) in
        if k <> kind then Alcotest.failf "%s: %s" what l
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  let raw c frame =
    Protocol.write_frame (Client.fd c) frame;
    match Protocol.read_frame (Client.fd c) with
    | Some p -> Protocol.response_of_payload p
    | None -> Stdlib.Error "daemon hung up"
  in
  Client.with_connection path @@ fun c ->
  expect "pipeline rewrite" "rewritten" (Client.rewrite c ~approach:"ours/jt" bin);
  expect "memo replay" "rewritten" (Client.rewrite c ~approach:"ours/jt" bin);
  (* A parked executor holds one queued request; the next finds the
     queue at its bound. *)
  Scheduler.pause (Server.scheduler srv);
  let queued = ref (Stdlib.Error "never answered") in
  let th =
    Thread.create
      (fun () ->
        Client.with_connection path @@ fun c2 ->
        queued := Client.rewrite c2 ~approach:"ours/dir" bin)
      ()
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while Scheduler.pending (Server.scheduler srv) < 1 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "never queued";
    Thread.delay 0.01
  done;
  expect "full queue" "overloaded"
    (Client.rewrite c ~approach:"ours/func-ptr" bin);
  Scheduler.resume (Server.scheduler srv);
  Thread.join th;
  expect "queued rewrite" "rewritten" !queued;
  expect "malformed frame" "error" (raw c "complete nonsense");
  let str = Binfile.to_string bin in
  expect "register" "registered" (Client.register_bytes c str);
  expect "bad patch" "error"
    (Client.rewrite_payload c ~approach:"ours/jt"
       (Protocol.Patch
          {
            base = Icfg_service.Store.digest str;
            total_len = 16;
            ranges = [ (0, "abc"); (1, "xyz") ];
          }));
  expect "unknown base" "need-full"
    (Client.rewrite_payload c ~approach:"ours/jt"
       (Protocol.Ref (String.make 32 '0')));
  expect "oversized frame" "rejected" (raw c (String.make (max_frame + 1) 'x'));
  (* Pong and StatsSnapshot are not booked. *)
  (match Client.ping c with
  | Ok Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping");
  ignore (scrape path);
  let snap = Server.snapshot srv in
  let responses =
    List.filter_map
      (fun (k, v) ->
        let p = "serve.responses:" in
        let n = String.length p in
        if String.length k > n && String.sub k 0 n = p then
          Some (String.sub k n (String.length k - n), v)
        else None)
      snap.Metrics.s_counters
  in
  Alcotest.(check int) "serve.responses:* sums to the frames answered"
    !answered
    (List.fold_left (fun a (_, v) -> a + v) 0 responses);
  Alcotest.(check int) "served requests: pipeline, replay, queued" 3
    (counter snap "serve.requests");
  List.iter
    (fun (total, kind, n) ->
      let booked = Option.value ~default:0 (List.assoc_opt kind responses) in
      Alcotest.(check int) ("serve.responses:" ^ kind) n booked;
      Alcotest.(check int)
        (Printf.sprintf "serve.%s == serve.responses:%s" total kind)
        booked (counter snap ("serve." ^ total)))
    [
      ("errors", "error", 2);
      ("overloaded", "overloaded", 1);
      ("rejected", "rejected", 1);
      ("needfull", "needfull", 1);
      ("registered", "registered", 1);
    ]

(* [Client] counts the frame bytes it writes: Σ(4 + payload length) over
   every request frame, the full re-send of a NeedFull fallback
   included. *)
let client_counts_bytes () =
  let str_a = Binfile.to_string (first_bench Arch.X86_64) in
  let str_b = Binfile.to_string (first_bench Arch.Aarch64) in
  let dig_a = Icfg_service.Store.digest str_a in
  (* A store sized for one binary: registering B evicts A. *)
  let store_bytes = max (String.length str_a) (String.length str_b) in
  with_server ~workers:1 ~store_bytes () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  ignore (Client.ping c);
  ignore (Client.register_bytes c str_a);
  ignore (Client.register_bytes c str_b);
  (match
     Client.rewrite_payload c ~approach:"ours/jt" ~fallback:str_a
       (Protocol.Ref dig_a)
   with
  | Ok (Protocol.Rewritten _) -> ()
  | r ->
      Alcotest.failf "fallback rewrite: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  Alcotest.(check int) "the Ref drew a NeedFull" 1
    (counter (Server.snapshot srv) "serve.needfull");
  let rewrite payload =
    Protocol.Rewrite { approach = "ours/jt"; jobs = 0; payload }
  in
  let written =
    [
      Protocol.Ping;
      Protocol.Register { bin = str_a };
      Protocol.Register { bin = str_b };
      rewrite (Protocol.Ref dig_a);
      rewrite (Protocol.Full str_a);
    ]
  in
  Alcotest.(check int) "bytes_sent == sum of 4 + payload length"
    (List.fold_left
       (fun a r -> a + 4 + String.length (Protocol.request_to_payload r))
       0 written)
    (Client.bytes_sent c)

(* ------------------------------------------------------------------ *)
(* (f) history independence: X, its edit X', then X again              *)
(* ------------------------------------------------------------------ *)

(* The first spec binary of [arch] (X) and its jump-table flip (X'), an
   edit that changes the relocated size of the functions whose tables
   cover the flipped byte. *)
let base_and_flip arch =
  let bin = first_bench arch in
  match Test_layout.table_flip (Runner.parse bin) with
  | Some (flipped, _) -> (bin, flipped)
  | None -> Alcotest.failf "%s: no resolved jump table" (Arch.name arch)

(* What a rewrite answer says of its pipeline run, comparable with the
   one-shot result. *)
type outcome = Out of string | Refusal of string | Raised of string

let oneshot approach bin =
  match Runner.drive ~approach bin with
  | Some (Baseline.Rewritten rw) -> Out (Binfile.to_string rw.Rewriter.rw_binary)
  | Some (Baseline.Refused reason) -> Refusal reason
  | None -> Alcotest.failf "%s is not on the roster" approach
  | exception e -> Raised (Printexc.to_string e)

let outcome_of what = function
  | Protocol.Rewritten { bin; _ } -> Out bin
  | Protocol.Refused { reason; _ } -> Refusal reason
  | Protocol.Error { message; _ } -> Raised message
  | r -> Alcotest.failf "%s: daemon said %s" what (response_label r)

let ask c ~approach what bin =
  match Client.rewrite c ~approach bin with
  | Ok r -> r
  | Error m -> Alcotest.failf "%s: transport error %s" what m

(* A daemon whose memo holds nothing, so every answer runs the pipeline,
   answers X, X' and X again on every ISA. Each answer equals
   [Runner.drive]'s one-shot result, and both answers for X are the same
   payload, counters included: no layout or other state carries over
   from one request to the next. *)
let history_independent approach () =
  with_server ~workers:1 ~memo_bytes:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  List.iter
    (fun arch ->
      let x, x' = base_and_flip arch in
      let what s = Printf.sprintf "%s %s: %s" approach (Arch.name arch) s in
      let answers =
        List.map
          (fun (name, bin) -> (name, bin, ask c ~approach (what name) bin))
          [ ("X", x); ("X'", x'); ("X again", x) ]
      in
      List.iter
        (fun (name, bin, r) ->
          Alcotest.(check bool)
            (what (name ^ " == one-shot"))
            true
            (outcome_of (what name) r = oneshot approach bin))
        answers;
      match answers with
      | [ (_, _, first); _; (_, _, again) ] ->
          Alcotest.(check string)
            (what "X answered alike twice")
            (Protocol.response_to_payload first)
            (Protocol.response_to_payload again)
      | _ -> assert false)
    Arch.all;
  Alcotest.(check int) "every answer ran the pipeline" 9
    (counter (Server.snapshot srv) "sched.jobs")

let original_runs srv =
  match Metrics.find_histo (Server.snapshot srv) "stage.run:original" with
  | Some h -> h.Metrics.h_count
  | None -> 0

(* Classify answers are history-independent too: X, X' and X again,
   classified by a daemon whose memos hold nothing, each classify like
   the in-process cell, and each runs the original again. *)
let classify_history_independent () =
  with_server ~workers:1 ~memo_bytes:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  List.iter
    (fun arch ->
      let x, x' = base_and_flip arch in
      List.iter
        (fun (name, bin) ->
          let what = Printf.sprintf "%s %s" (Arch.name arch) name in
          let orig = Runner.run_original bin in
          let _, cell = Matrix.eval_cell ~orig ~approach:"ours/jt" bin in
          match Client.classify c ~approach:"ours/jt" bin with
          | Ok (Protocol.Classified { cls; _ }) ->
              Alcotest.(check string) what (Matrix.cls_to_string cell)
                (Matrix.cls_to_string cls)
          | r ->
              Alcotest.failf "%s: %s" what
                (match r with Ok x -> response_label x | Error m -> m))
        [ ("X", x); ("X'", x'); ("X again", x) ])
    Arch.all;
  Alcotest.(check int) "every classify ran the original" 9
    (original_runs srv);
  Alcotest.(check int) "the run memo held nothing" 0
    (counter (Server.snapshot srv) "run_memo.hit")

(* The run memo: one daemon classifies X under two approaches. The
   first runs the original; the second books the stored run, and its
   answer, counters included, equals a fresh daemon's. *)
let run_memo () =
  let x = first_bench Arch.X86_64 in
  (* The wall ns is a time; everything else in the answer is pinned. *)
  let classify c approach =
    match Client.classify c ~approach x with
    | Ok (Protocol.Classified r) -> Protocol.Classified { r with ns = 0. }
    | r ->
        Alcotest.failf "%s: %s" approach
          (match r with Ok x -> response_label x | Error m -> m)
  in
  let fresh approach =
    with_server ~workers:1 () @@ fun _srv path ->
    Client.with_connection path @@ fun c -> classify c approach
  in
  with_server ~workers:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  ignore (classify c "ours/jt");
  let second = classify c "ours/dir" in
  let snap = Server.snapshot srv in
  Alcotest.(check int) "one original run" 1 (original_runs srv);
  Alcotest.(check int) "run_memo.miss" 1 (counter snap "run_memo.miss");
  Alcotest.(check int) "run_memo.hit" 1 (counter snap "run_memo.hit");
  Alcotest.(check string) "second approach == fresh daemon's answer"
    (Protocol.response_to_payload (fresh "ours/dir"))
    (Protocol.response_to_payload second)

(* With the memo on, X' answered after X is the same payload, counters
   included, as X' answered by a fresh daemon: the memo key (kind,
   approach, input digest) covers everything an answer depends on. *)
let edit_after_base () =
  List.iter
    (fun arch ->
      let x, x' = base_and_flip arch in
      let last_answer bins =
        with_server ~workers:1 () @@ fun _srv path ->
        Client.with_connection path @@ fun c ->
        List.fold_left
          (fun _ bin ->
            Protocol.response_to_payload
              (ask c ~approach:"ours/jt" (Arch.name arch) bin))
          "" bins
      in
      Alcotest.(check bool)
        (Arch.name arch ^ ": X' after X == X' fresh")
        true
        (last_answer [ x; x' ] = last_answer [ x' ]))
    Arch.all

(* The one NeedFull rule, for a patch: against a base the daemon never
   saw, a Patch answers NeedFull; sent with the target's bytes as
   [fallback], it is answered like the target sent whole, and that upload
   registers the target, so a Ref to it resolves. *)
let patch_needfull_fallback () =
  let x, x' = base_and_flip Arch.X86_64 in
  let str_x = Binfile.to_string x and str_x' = Binfile.to_string x' in
  let dig_x = Icfg_service.Store.digest str_x in
  let patch =
    Protocol.Patch
      {
        base = dig_x;
        total_len = String.length str_x';
        ranges = Protocol.diff_ranges ~base:str_x str_x';
      }
  in
  with_server ~workers:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  let rewrite ?fallback what payload =
    match Client.rewrite_payload c ~approach:"ours/jt" ?fallback payload with
    | Ok (Protocol.Rewritten { bin; _ }) -> bin
    | r ->
        Alcotest.failf "%s: %s" what
          (match r with Ok x -> response_label x | Error m -> m)
  in
  (match Client.rewrite_payload c ~approach:"ours/jt" patch with
  | Ok (Protocol.NeedFull { digest }) ->
      Alcotest.(check string) "NeedFull names the base" dig_x digest
  | r ->
      Alcotest.failf "patch against an unknown base: %s"
        (match r with Ok x -> response_label x | Error m -> m));
  let healed = rewrite ~fallback:str_x' "patch with fallback" patch in
  (* Nothing but the fallback's upload has sent X' so far. *)
  let by_ref =
    rewrite "X' by ref" (Protocol.Ref (Icfg_service.Store.digest str_x'))
  in
  let whole = rewrite "X' whole" (Protocol.Full str_x') in
  Alcotest.(check bool) "fallback answer == whole upload" true
    (healed = whole);
  Alcotest.(check bool) "the fallback registered X'" true (by_ref = whole);
  Alcotest.(check int) "two NeedFull answers" 2
    (counter (Server.snapshot srv) "serve.needfull")

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "protocol codec round-trips" `Quick codec_roundtrip;
        Alcotest.test_case "scheduler bound/pause/drain" `Quick scheduler_unit;
        Alcotest.test_case "response equivalence (mode x ISA)" `Slow
          response_equivalence;
        Alcotest.test_case "concurrent-client determinism" `Slow
          concurrent_determinism;
        Alcotest.test_case "backpressure: exactly M refusals" `Quick
          backpressure;
        Alcotest.test_case "trace isolation across requests" `Quick isolation;
        Alcotest.test_case "crash containment" `Slow crash_containment;
        Alcotest.test_case "1 GiB declared tail is an Error" `Quick tail_bomb;
        Alcotest.test_case "malformed frame containment" `Quick
          malformed_frame;
        Alcotest.test_case "stats totals == served stream" `Quick
          stats_totals;
        Alcotest.test_case "flight recorder retention" `Quick flight_recorder;
        Alcotest.test_case "telemetry is observation-only" `Quick
          observation_only;
        Alcotest.test_case "patch codec edge cases" `Quick patch_codec;
        Alcotest.test_case "incremental protocol (ref/patch)" `Slow
          incremental_protocol;
        Alcotest.test_case "eviction -> NeedFull -> fallback heals" `Slow
          eviction_needfull_heals;
        Alcotest.test_case "bounds: typed Rejected refusals" `Quick
          bounds_rejection;
        Alcotest.test_case "whole-response memoization" `Quick response_memo;
        Alcotest.test_case "every answer booked once" `Quick
          every_answer_booked;
        Alcotest.test_case "client counts the bytes it writes" `Quick
          client_counts_bytes;
        Alcotest.test_case "X' after X == X' fresh (memo on)" `Quick
          edit_after_base;
        Alcotest.test_case "history-independent classify answers" `Quick
          classify_history_independent;
        Alcotest.test_case "run memo: one original run per input" `Quick
          run_memo;
        Alcotest.test_case "patch NeedFull falls back to the whole file"
          `Quick patch_needfull_fallback;
      ]
      @ List.map
          (fun (approach, _) ->
            Alcotest.test_case
              ("history-independent answers: " ^ approach)
              `Quick (history_independent approach))
          Baseline.approaches );
  ]
