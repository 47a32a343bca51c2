(* serve-mixed: one op is one request from a closed loop of two blocking
   [Client] connections to an in-process [Server] at its defaults
   (2 executor domains, default queue, store and memo bounds). Callers of
   [Client] and [icfg submit] wait for each reply, hence the closed loop.

   A round starts a fresh daemon, registers the dup binaries, and
   streams two client scripts; a run repeats rounds, so every round's
   full uploads really are binaries the daemon has not seen. Per upload
   binary a script carries one full-upload Classify, two Ref Classify
   with other approaches, two Patch Rewrite of a one-function edit
   (ours/dir, ours/jt) and three exact replays of earlier requests; at
   evenly spaced points both clients meet at a barrier and send the same
   Ref Classify at once, which races past the response memo. Replays
   (~1/3 of ops, microseconds) sit below patches (~1/4, milliseconds),
   so p50 lands inside the patch cluster, and p95 inside the classify
   cluster. The pool of binaries and requests is fixed; the run seed
   orders each script. Every response is checked against an in-process
   [Matrix.eval_cell] / [Runner.drive] reference computed in setup. *)

module Corpus = Icfg_workloads.Corpus
module Binfile = Icfg_obj.Binfile
module Runner = Icfg_harness.Runner
module Matrix = Icfg_harness.Matrix
module Baseline = Icfg_baselines.Baseline
module Server = Icfg_service.Server
module Client = Icfg_service.Client
module Protocol = Icfg_service.Protocol
module Store = Icfg_service.Store
module M = Icfg_core.Metrics
module Vm = Icfg_runtime.Vm

type expect = Cls of string | Bytes of string | Refusal of string

type req = {
  kind : string;  (** full | ref | patch | replay *)
  request : Protocol.request;
  fallback : string option;  (** full bytes, to heal a NeedFull *)
  expect : expect;
  resolved : string;  (** the binary the daemon resolves the payload to *)
  base : string;  (** a Patch request's base bytes; [""] otherwise *)
  key : string;  (** the daemon's response-memo identity *)
  wire : int;  (** request bytes on the wire *)
}

type env = {
  uploads : req list array;
      (** per upload binary: its full upload first, then two ref and two
          patch requests *)
  dups : (string * req list) array;  (** bytes registered each round, and their Ref Classify requests *)
  det : Report.det list;  (** one per verified Patch Rewrite reference *)
}

let corpus_seed = 7
let n_uploads = 20
let n_dups = 4
let replays_per_upload = 3
let roster = Array.of_list (List.map fst Baseline.approaches)
let patch_approaches = [ "ours/dir"; "ours/jt" ]
let dup_approaches = [ "ours/jt"; "srbi" ]

let make_req ~kind ~expect ~resolved ?(base = "") ?fallback request =
  let key =
    match request with
    | Protocol.Classify { approach; _ } -> "C:" ^ approach ^ ":" ^ Store.digest resolved
    | Protocol.Rewrite { approach; _ } -> "R:" ^ approach ^ ":" ^ Store.digest resolved
    | _ -> ""
  in
  {
    kind;
    request;
    fallback;
    expect;
    resolved;
    base;
    key;
    wire = 4 + String.length (Protocol.request_to_payload request);
  }

let classify_req ~kind ~orig bin bytes approach payload =
  let _, cls = Matrix.eval_cell ~orig ~approach bin in
  make_req ~kind ~resolved:bytes
    ~expect:(Cls (Matrix.cls_to_string cls))
    ?fallback:(match payload with Protocol.Full _ -> None | _ -> Some bytes)
    (Protocol.Classify { approach; jobs = 0; payload })

(* Patch requests against [bytes] for a one-function edit, with their
   references; [det] collects each verified rewrite's deterministic
   metrics. *)
let patch_reqs ~det bin bytes =
  match Runner.perturb_function (Runner.parse ~jobs:1 bin) with
  | None -> None
  | Some (ebin, _) ->
      let edited = Binfile.to_string ebin in
      let orig = Runner.run_original ebin in
      let coverage = Icfg_analysis.Parse.coverage (Runner.parse ~jobs:1 ebin) in
      let payload =
        Protocol.Patch
          {
            base = Store.digest bytes;
            total_len = String.length edited;
            ranges = Protocol.diff_ranges ~base:bytes edited;
          }
      in
      Some
        (List.map
           (fun approach ->
             let expect =
               match Runner.drive ~approach ~jobs:1 ebin with
               | Some (Baseline.Rewritten rw) ->
                   let r = Runner.run_rewritten rw in
                   if r.r_outcome = Vm.Halted && r.r_output = orig.r_output then
                     det :=
                       Report.det_of ~orig ~rewritten:r
                         ~orig_size:(Icfg_obj.Binary.loaded_size ebin)
                         ~new_size:(Icfg_obj.Binary.loaded_size rw.Icfg_core.Rewriter.rw_binary)
                         ~coverage
                       :: !det;
                   Bytes (Binfile.to_string rw.Icfg_core.Rewriter.rw_binary)
               | Some (Baseline.Refused reason) -> Refusal reason
               | None -> Refusal ("unknown approach: " ^ approach)
             in
             make_req ~kind:"patch" ~expect ~resolved:edited ~base:bytes ~fallback:edited
               (Protocol.Rewrite { approach; jobs = 0; payload }))
           patch_approaches)

let sock_path () = Printf.sprintf ".icfg-bench-%d.sock" (Unix.getpid ())

(* Start a daemon at its defaults and register the dup binaries. *)
let start_daemon env =
  let path = sock_path () in
  let srv = Server.start ~path () in
  Client.with_connection path (fun c ->
      Array.iter (fun (bytes, _) -> ignore (Client.register_bytes c bytes)) env.dups);
  srv

let setup ?(n_uploads = n_uploads) ?(n_dups = n_dups) () =
  let det = ref [] in
  let pool =
    Corpus.generate ~seed:corpus_seed ~count:(3 * (n_uploads + n_dups))
    |> List.filter (fun (e : Corpus.entry) ->
           e.e_twin_of = None && e.e_shape <> Corpus.Starved)
    |> List.filteri (fun i _ -> i < n_uploads + n_dups)
    |> List.map (fun e ->
           let bin = Corpus.build e in
           (bin, Binfile.to_string bin))
  in
  let uploads =
    List.filteri (fun i _ -> i < n_uploads) pool
    |> List.mapi (fun i (bin, bytes) ->
           let orig = Runner.run_original bin in
           let approach k = roster.((i + (2 * k)) mod Array.length roster) in
           let digest = Store.digest bytes in
           let patches =
             Option.value ~default:[] (patch_reqs ~det bin bytes)
           in
           classify_req ~kind:"full" ~orig bin bytes (approach 0) (Protocol.Full bytes)
           :: classify_req ~kind:"ref" ~orig bin bytes (approach 1) (Protocol.Ref digest)
           :: classify_req ~kind:"ref" ~orig bin bytes (approach 2) (Protocol.Ref digest)
           :: patches)
  in
  let dups =
    List.filteri (fun i _ -> i >= n_uploads) pool
    |> List.map (fun (bin, bytes) ->
           let orig = Runner.run_original bin in
           ( bytes,
             List.map
               (fun a ->
                 classify_req ~kind:"ref" ~orig bin bytes a (Protocol.Ref (Store.digest bytes)))
               dup_approaches ))
  in
  let env = { uploads = Array.of_list uploads; dups = Array.of_list dups; det = !det } in
  (* The daemon start and registration every round repeats. *)
  Server.stop (start_daemon env);
  env

(* One client's script for one round: its uploads' requests, each
   upload's full upload first, interleaved at random, with replays of
   the upload's earlier requests, and the dup requests (flagged [true])
   at evenly spaced positions shared by both clients. *)
let script env rng c =
  let queues =
    Array.to_list env.uploads
    |> List.filteri (fun i _ -> i mod 2 = c)
    |> List.map (fun u ->
           match u with
           | [] -> (ref [], ref [])
           | first :: rest ->
               let tail =
                 List.map Option.some rest @ List.init replays_per_upload (fun _ -> None)
               in
               (ref (Some first :: Array.to_list (Util.shuffle rng (Array.of_list tail))), ref []))
  in
  let rec interleave acc =
    let remaining = List.fold_left (fun n (q, _) -> n + List.length !q) 0 queues in
    if remaining = 0 then List.rev acc
    else
      let rec pick k = function
        | (q, h) :: rest -> if k < List.length !q then (q, h) else pick (k - List.length !q) rest
        | [] -> assert false
      in
      let q, history = pick (Random.State.int rng remaining) queues in
      let r =
        match List.hd !q with
        | Some r ->
            history := r :: !history;
            r
        | None ->
            let h = Array.of_list !history in
            { (h.(Random.State.int rng (Array.length h))) with kind = "replay" }
      in
      q := List.tl !q;
      interleave (r :: acc)
  in
  let ops = Array.of_list (interleave []) in
  let dups = Array.of_list (List.concat_map snd (Array.to_list env.dups)) in
  let n = Array.length ops and k = Array.length dups in
  List.concat
    (List.init n (fun i ->
         let here =
           List.filter_map
             (fun j -> if (j + 1) * n / (k + 1) = i then Some (true, dups.(j)) else None)
             (List.init k Fun.id)
         in
         here @ [ (false, ops.(i)) ]))

(* A two-party barrier: the dup requests leave both clients together. *)
type barrier = { m : Mutex.t; cv : Condition.t; mutable waiting : int; mutable gen : int }

let await b =
  Mutex.lock b.m;
  let g = b.gen in
  b.waiting <- b.waiting + 1;
  if b.waiting = 2 then begin
    b.waiting <- 0;
    b.gen <- g + 1;
    Condition.broadcast b.cv
  end
  else
    while b.gen = g do
      Condition.wait b.cv b.m
    done;
  Mutex.unlock b.m

let send c r =
  match r.request with
  | Protocol.Classify { approach; payload; _ } ->
      Client.classify_payload c ~approach ?fallback:r.fallback payload
  | Protocol.Rewrite { approach; payload; _ } ->
      Client.rewrite_payload c ~approach ?fallback:r.fallback payload
  | request -> Client.call c request

(* Transport errors, Error, Overloaded, Rejected and an unhealed NeedFull
   all fail; a refusal passes only when the reference refused alike. *)
let check expect = function
  | Ok (Protocol.Classified { cls; _ }) -> expect = Cls (Matrix.cls_to_string cls)
  | Ok (Protocol.Rewritten { bin; _ }) -> expect = Bytes bin
  | Ok (Protocol.Refused { reason; _ }) -> expect = Refusal reason
  | Ok _ | Error _ -> false

let client_loop c barrier ~traced ~tamper steps =
  List.map
    (fun (dup, r) ->
      if dup then await barrier;
      let t0 = Util.now_ns () in
      let resp = try send c r with e -> Error (Printexc.to_string e) in
      let ns = Util.now_ns () - t0 in
      let resp = Result.map tamper resp in
      let wire =
        match resp with
        | Ok p when traced -> r.wire + 4 + String.length (Protocol.response_to_payload p)
        | _ -> r.wire
      in
      (r.kind, ns, check r.expect resp, wire))
    steps

(* Fold one round's daemon telemetry into the phase's layer sums. *)
let fold_snapshot (a : Util.acc) (s : M.snapshot) =
  let counter k = float_of_int (Option.value ~default:0 (M.find_counter s k)) in
  let gauge k = float_of_int (Option.value ~default:0 (M.find_gauge s k)) in
  let histo k = M.find_histo s k in
  let hsum k = Option.fold ~none:0. ~some:(fun h -> float_of_int h.M.h_sum) (histo k) in
  let hcount k = Option.fold ~none:0. ~some:(fun h -> float_of_int h.M.h_count) (histo k) in
  List.iter (fun (path, name) -> Util.add a name (hsum ("stage." ^ path))) Util.stage_layers;
  List.iter
    (fun (name, k) -> Util.add a name (counter k))
    [
      ("parse.funcs_per_op", "trace.parse/funcs");
      ("rewriter.trampolines", "trace.rewrite/trampolines");
      ("rewriter.trap_trampolines", "trace.rewrite/trampolines:trap");
      ("rewriter.cfl_blocks", "trace.rewrite/cfl-blocks");
      ("cache.hits", "cache.hits");
      ("cache.misses", "cache.misses");
      ("cache.bytes_reused", "cache.bytes_reused");
      ("store.hits", "store.hits");
      ("store.misses", "store.misses");
      ("response_cache.hit", "response_cache.hit");
      ("response_cache.miss", "response_cache.miss");
      ("serve.needfull", "serve.needfull");
      ("sched.jobs", "sched.jobs");
    ];
  List.iter
    (fun run ->
      Util.add a "vm.ns" (hsum ("stage.run:" ^ run));
      Util.add a "vm.runs" (hcount ("stage.run:" ^ run));
      Util.add a "vm.steps" (counter ("trace.vm/" ^ run ^ "/steps"));
      Util.add a "vm.traps" (counter ("trace.vm/" ^ run ^ "/traps"));
      Util.add a "vm.icache_misses" (counter ("trace.vm/" ^ run ^ "/icache-misses"));
      Util.add a "vm.icache_hits" (counter ("trace.vm/" ^ run ^ "/icache-hits")))
    [ "original"; "rewritten" ];
  Util.add a "store.bytes" (gauge "store.bytes");
  Util.add a "response_cache.bytes" (gauge "response_cache.bytes");
  Util.add a "qwait.ns" (hsum "sched.queue_wait");
  Util.add a "qwait.count" (hcount "sched.queue_wait");
  List.iter
    (fun (k, h) ->
      if String.length k > 16 && String.sub k 0 16 = "request.latency:" then
        Util.add a "body.ns" (float_of_int h.M.h_sum))
    s.M.s_histos;
  Util.add a "rounds" 1.

let round env ~rng ~traced ~tamper (ph : Util.phase) =
  let steps = [| script env rng 0; script env rng 1 |] in
  let srv = start_daemon env in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let path = Server.sock_path srv in
  let conns = Array.map (fun _ -> Client.connect path) steps in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) @@ fun () ->
  let barrier = { m = Mutex.create (); cv = Condition.create (); waiting = 0; gen = 0 } in
  Util.settle ();
  let results = Array.make 2 [] in
  let t0 = Util.now_ns () in
  let threads =
    Array.mapi
      (fun i s ->
        Thread.create
          (fun () -> results.(i) <- client_loop conns.(i) barrier ~traced ~tamper s)
          ())
      steps
  in
  Array.iter Thread.join threads;
  ph.clock_ns <- ph.clock_ns + (Util.now_ns () - t0);
  Array.iter
    (List.iter (fun (kind, ns, ok, wire) ->
         Util.record ph ~kind ~ns ~ok;
         if traced then begin
           Util.add ph.layers "rtt.ns" (float_of_int ns);
           Util.add ph.layers "wire.bytes" (float_of_int wire)
         end))
    results;
  if traced then begin
    fold_snapshot ph.layers (Server.snapshot srv);
    let unique =
      Array.to_list steps |> List.concat
      |> List.filter_map (fun (_, r) -> if r.kind = "replay" then None else Some r.key)
      |> List.sort_uniq compare
    in
    Util.add ph.layers "unique" (float_of_int (List.length unique))
  end

(* Connection-thread and Binfile costs of one round's requests, measured
   by calling the same public functions on the same request bytes after
   the stream: the daemon has no spans for them. Per-op means, in ns. *)
let estimate env rng =
  let steps = List.map snd (script env rng 0 @ script env rng 1) in
  let passes = 3 in
  let a = Util.acc () in
  let time name f =
    let t0 = Util.now_ns () in
    ignore (Sys.opaque_identity (f ()));
    Util.add a name (float_of_int (Util.now_ns () - t0))
  in
  for _ = 1 to passes do
    List.iter
      (fun r ->
        let payload = Protocol.request_to_payload r.request in
        time "protocol.decode" (fun () -> Protocol.request_of_payload payload);
        (match r.request with
        | Protocol.Rewrite { payload = Protocol.Patch p; _ } ->
            time "protocol.apply_patch" (fun () ->
                Protocol.apply_patch ~base:r.base ~total_len:p.total_len p.ranges);
            time "store.digest" (fun () -> Store.digest r.resolved)
        | Protocol.Classify { payload = Protocol.Full _; _ } ->
            time "store.digest" (fun () -> Store.digest r.resolved)
        | _ -> ());
        if r.kind <> "replay" then begin
          time "binfile.decode" (fun () -> Binfile.of_string r.resolved);
          Util.add a "binfile.bytes" (float_of_int (String.length r.resolved));
          match r.expect with
          | Bytes out ->
              let bin = Binfile.of_string out in
              time "binfile.encode" (fun () -> Binfile.to_string bin);
              Util.add a "binfile.bytes" (float_of_int (String.length out))
          | Cls _ | Refusal _ -> ()
        end)
      steps
  done;
  let per k = Util.get a k /. float_of_int (passes * List.length steps) in
  fun k -> per k

let run ?(tamper = Fun.id) env ~rng ~seconds ~min_ops ~traced =
  let ph = Util.phase () in
  Util.run_blocks ph ~seconds ~min_ops (fun () -> round env ~rng ~traced ~tamper ph);
  if traced then begin
    let per = estimate env rng in
    List.iter
      (fun k -> Util.add ph.layers ("est." ^ k) (per k))
      [
        "protocol.decode"; "protocol.apply_patch"; "store.digest"; "binfile.decode";
        "binfile.encode"; "binfile.bytes";
      ]
  end;
  ph

let det env = env.det

let layers _env ~(untraced : Util.phase) ~(traced : Util.phase) =
  let a = traced.layers and ops = float_of_int (max 1 traced.ops) in
  let g = Util.get a in
  let ratio x y = if y > 0. then x /. y else 0. in
  let est k = g ("est." ^ k) in
  let rtt = g "rtt.ns" and body = g "body.ns" and qwait = g "qwait.ns" in
  let conn = ops *. (est "protocol.decode" +. est "protocol.apply_patch" +. est "store.digest") in
  Util.stage_layer a ~ops:traced.ops
  @ Util.per_op a ~ops:traced.ops Util.count_layers
  @ Util.vm_layer a
  @ List.map
      (fun k -> ("client." ^ k ^ "_p50_ms", (Stat.summarize (Util.kind_samples untraced k)).Stat.p50))
      [ "full"; "ref"; "patch"; "replay" ]
  @ [
      ("cache.hit_pct", 100. *. ratio (g "cache.hits") (g "cache.hits" +. g "cache.misses"));
      ("cache.bytes_reused_mb", g "cache.bytes_reused" /. ops /. 1048576.);
      ("protocol.wire_kb_per_op", g "wire.bytes" /. ops /. 1024.);
      ("protocol.decode_ms", est "protocol.decode" /. 1e6);
      ("protocol.apply_patch_ms", est "protocol.apply_patch" /. 1e6);
      ("store.digest_ms", est "store.digest" /. 1e6);
      ("binfile.decode_ms", est "binfile.decode" /. 1e6);
      ("binfile.encode_ms", est "binfile.encode" /. 1e6);
      ("binfile.mb_per_op", est "binfile.bytes" /. 1048576.);
      ("store.hit_pct", 100. *. ratio (g "store.hits") (g "store.hits" +. g "store.misses"));
      ("serve.needfull", g "serve.needfull");
      ( "response_cache.hit_pct",
        100. *. ratio (g "response_cache.hit") (g "response_cache.hit" +. g "response_cache.miss") );
      ("store.mb", ratio (g "store.bytes") (g "rounds") /. 1048576.);
      ("response_cache.mb", ratio (g "response_cache.bytes") (g "rounds") /. 1048576.);
      ("scheduler.queue_wait_ms", ratio qwait (g "qwait.count") /. 1e6);
      ("scheduler.jobs_per_unique", ratio (g "sched.jobs") (g "unique"));
      ("server.body_ms", ratio body (g "sched.jobs") /. 1e6);
      ("server.unattributed_pct", Util.uncovered_pct ~total:rtt (body +. qwait));
      ("unattributed_pct", Util.uncovered_pct ~total:rtt (body +. qwait +. conn));
    ]
