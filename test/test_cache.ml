(* The layout-slot store in isolation: slot round-trips, clone
   semantics, and fault tolerance of the slot files. A corrupt,
   truncated, version-skewed or hand-forged slot must degrade to a cold
   layout with a correct rewrite and a counted eviction; it must never
   surface as an error or as wrong bytes. Plus the LRU policy of the
   daemon's byte stores, and the daemon's use of the slot store. *)

module Cache = Icfg_core.Cache
module Runner = Icfg_harness.Runner

let spec_bin () =
  let arch = Icfg_isa.Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* A clone starts with the source's slots and zeroed statistics, and
   slots stored on either side afterwards stay on that side. *)
let clone_isolation () =
  let c = Cache.create () in
  Cache.store_slot c "a" 1;
  let k = Cache.clone c in
  Alcotest.(check int) "clone stats start at zero" 0
    (Cache.stats k).Cache.c_stores;
  Alcotest.(check (option int)) "clone serves the copied slot" (Some 1)
    (Cache.find_slot k "a");
  Cache.store_slot k "b" 2;
  Cache.store_slot c "a" 3;
  Alcotest.(check (option int)) "the clone's slot does not leak back" None
    (Cache.find_slot c "b");
  Alcotest.(check (option int)) "the source's overwrite does not leak in"
    (Some 1) (Cache.find_slot k "a")

(* The daemon stores' LRU policy: the least recently used entry goes
   first, a hit refreshes, an oversized value is refused and changes
   nothing, and replacing a key never evicts the key itself. *)
let lru_policy () =
  let module Store = Icfg_service.Store in
  let st = Store.create ~max_bytes:10 () in
  let add k n =
    Alcotest.(check bool) ("add " ^ k) true
      (Store.add st ~key:k (String.make n k.[0]))
  in
  let present () = List.filter (Store.mem st) [ "a"; "b"; "c"; "x"; "y" ] in
  let footprint () =
    let s = Store.stats st in
    (s.Store.st_bytes, s.Store.st_entries, s.Store.st_evictions)
  in
  List.iter (fun k -> add k 3) [ "c"; "a"; "b" ];
  add "x" 4;
  Alcotest.(check (list string)) "oldest entry evicted" [ "a"; "b"; "x" ]
    (present ());
  (* A hit refreshes: "a" outlives the younger "b". *)
  ignore (Store.find st "a");
  add "y" 3;
  Alcotest.(check (list string)) "untouched entry goes first"
    [ "a"; "x"; "y" ] (present ());
  Alcotest.(check (triple int int int)) "bytes, entries, evictions"
    (10, 3, 2) (footprint ());
  Alcotest.(check bool) "oversized refused" false
    (Store.add st ~key:"huge" (String.make 11 'h'));
  Alcotest.(check (triple int int int)) "refusal changes nothing" (10, 3, 2)
    (footprint ());
  (* Replacing a key keeps the footprint exact and never evicts the key
     itself. *)
  add "y" 1;
  Alcotest.(check (triple int int int)) "replace fits without eviction"
    (8, 3, 2) (footprint ());
  add "y" 10;
  Alcotest.(check (list string)) "full-capacity replace evicts the rest"
    [ "y" ] (present ());
  Alcotest.(check (triple int int int)) "only the replaced key left"
    (10, 1, 4) (footprint ())

(* Store evicts in the same order through its own API: a hit protects an
   older entry, misses and [mem] probes do not. *)
let store_eviction_order () =
  let module Store = Icfg_service.Store in
  let st = Store.create ~max_bytes:12 () in
  let add k = ignore (Store.add st ~key:k (String.make 4 k.[0])) in
  List.iter add [ "a"; "b"; "c" ];
  ignore (Store.find st "a");
  ignore (Store.mem st "b");
  add "d";
  Alcotest.(check (list bool)) "b evicted, refreshed a kept"
    [ true; false; true; true ]
    (List.map (Store.mem st) [ "a"; "b"; "c"; "d" ]);
  add "e";
  Alcotest.(check bool) "then c" false (Store.mem st "c");
  Alcotest.(check bool) "oversized rejected" false
    (Store.add st ~key:"f" (String.make 13 'f'));
  let s = Store.stats st in
  Alcotest.(check (list int)) "evictions, rejections, bytes, entries"
    [ 2; 1; 12; 3 ]
    [ s.Store.st_evictions; s.Store.st_rejected; s.Store.st_bytes;
      s.Store.st_entries ]

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

let slot_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".slot")
    (Array.to_list (Sys.readdir dir))

let slot_battery () =
  Test_layout.with_temp_dir (fun dir ->
      let c = Cache.create ~dir () in
      Alcotest.(check bool) "absent initially" true
        ((Cache.find_slot c "layout" : int list option) = None);
      Cache.store_slot c "layout" [ 1; 2; 3 ];
      Alcotest.(check (list int)) "round-trip" [ 1; 2; 3 ]
        (Option.get (Cache.find_slot c "layout"));
      Cache.store_slot c "layout" [ 9 ];
      Alcotest.(check (list int)) "overwrite" [ 9 ]
        (Option.get (Cache.find_slot c "layout"));
      (* Statistics count slot lookups and writes. *)
      let s = Cache.stats c in
      Alcotest.(check (list int)) "hits, misses, stores" [ 2; 1; 2 ]
        [ s.Cache.c_hits; s.Cache.c_misses; s.Cache.c_stores ];
      Alcotest.(check int) "one slot file" 1 (List.length (slot_files dir));
      (* clone carries slots into warm replays (and drops the directory). *)
      let k = Cache.clone c in
      Alcotest.(check (list int)) "clone carries the slot" [ 9 ]
        (Option.get (Cache.find_slot k "layout"));
      (* A fresh cache over the directory reads last run's slot. *)
      let c2 = Cache.create ~dir () in
      Alcotest.(check (list int)) "slot persists on disk" [ 9 ]
        (Option.get (Cache.find_slot c2 "layout"));
      (* A mangled slot file reads as absent and is evicted, counted. *)
      (match slot_files dir with
      | [ f ] -> write_file (Filename.concat dir f) "not a slot"
      | fs -> Alcotest.fail (Printf.sprintf "%d slot files" (List.length fs)));
      let c3 = Cache.create ~dir () in
      Alcotest.(check bool) "corrupt slot reads as absent" true
        ((Cache.find_slot c3 "layout" : int list option) = None);
      Alcotest.(check int) "corrupt slot evicted" 1
        (Cache.stats c3).Cache.c_evict_corrupt;
      Alcotest.(check (list string)) "corrupt slot file removed" []
        (slot_files dir))


(* Warm a slot directory with a full rewrite, mangle its one slot file
   with [damage], then rewrite through a fresh cache over the same
   directory: the slot reads as absent (one counted eviction, no hit),
   the layout is solved cold, and the output is byte-identical to the
   uncached rewrite. *)
let damage_case ~what damage =
  Test_layout.with_temp_dir (fun dir ->
      let bin = spec_bin () in
      let options = Test_golden.opts Icfg_core.Mode.Jt in
      let uncached = Runner.rewrite ~options bin in
      ignore (Runner.rewrite ~options ~cache:(Cache.create ~dir ()) bin);
      (match slot_files dir with
      | [ f ] -> damage (Filename.concat dir f)
      | fs -> Alcotest.failf "%s: %d slot files" what (List.length fs));
      let c = Cache.create ~dir () in
      let rw = Runner.rewrite ~options ~cache:c bin in
      Test_golden.check_same ~what uncached rw;
      let s = Cache.stats c in
      Alcotest.(check (list int)) (what ^ ": evictions, hits")
        [ 1; 0 ] [ s.Cache.c_evict_corrupt; s.Cache.c_hits ];
      (* The rewrite re-stored a valid slot: a third run finds it. *)
      let c3 = Cache.create ~dir () in
      ignore (Runner.rewrite ~options ~cache:c3 bin);
      Alcotest.(check int) (what ^ ": store healed") 1
        (Cache.stats c3).Cache.c_hits)

let disk_truncated () =
  damage_case ~what:"truncated slot" (fun path ->
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s / 2)))

let disk_garbage () =
  damage_case ~what:"garbage slot" (fun path ->
      write_file path (String.make 64 '\xfe'))

let disk_empty () =
  damage_case ~what:"empty slot" (fun path -> write_file path "")

let disk_version_skew () =
  (* A future format version: same layout, bumped magic. Must read as
     stale, not as valid. *)
  damage_case ~what:"version-skewed slot" (fun path ->
      let s = read_file path in
      let i = String.index s '\n' in
      write_file path ("icfgcache/2" ^ String.sub s i (String.length s - i)))

let disk_forged_payload () =
  (* A foreign writer with a self-consistent file (magic, key echo,
     length and digest all valid) around a payload that is not a marshal
     image: the file validates, the unmarshal fails. *)
  damage_case ~what:"forged payload" (fun path ->
      let key = Filename.chop_suffix (Filename.basename path) ".slot" in
      let payload = "not a marshal image" in
      write_file path
        (String.concat "\n"
           [
             "icfgcache/1";
             key;
             string_of_int (String.length payload);
             Digest.to_hex (Digest.string payload);
             payload;
           ]))

(* A valid slot file copied over another key's file: its key echo no
   longer matches the name it is read under, so it reads as absent and
   is evicted — a slot never answers for a key it was not stored
   under — while the original keeps reading. *)
let disk_foreign_key () =
  Test_layout.with_temp_dir (fun dir ->
      let c = Cache.create ~dir () in
      Cache.store_slot c "a" 1;
      let fa = slot_files dir in
      Cache.store_slot c "b" 2;
      let fb = List.filter (fun f -> not (List.mem f fa)) (slot_files dir) in
      (match (fa, fb) with
      | [ fa ], [ fb ] ->
          write_file (Filename.concat dir fb)
            (read_file (Filename.concat dir fa))
      | _ -> Alcotest.fail "expected one slot file per key");
      let c2 = Cache.create ~dir () in
      Alcotest.(check (option int)) "copied slot reads as absent" None
        (Cache.find_slot c2 "b");
      Alcotest.(check (option int)) "the original still reads" (Some 1)
        (Cache.find_slot c2 "a");
      let s = Cache.stats c2 in
      Alcotest.(check (list int)) "evictions, hits, misses" [ 1; 1; 1 ]
        [ s.Cache.c_evict_corrupt; s.Cache.c_hits; s.Cache.c_misses ];
      Alcotest.(check (list string)) "only the original's file left" fa
        (slot_files dir))

(* [c_bytes_reused] counts the marshalled bytes of the slots found:
   misses and writes add nothing, and a slot read back from disk counts
   like one found in memory. *)
let slot_bytes_reused () =
  Test_layout.with_temp_dir (fun dir ->
      let v = List.init 100 (fun i -> i) in
      let n = String.length (Marshal.to_string v []) in
      let c = Cache.create ~dir () in
      ignore (Cache.find_slot c "layout" : int list option);
      Cache.store_slot c "layout" v;
      Alcotest.(check int) "a miss and a write reuse nothing" 0
        (Cache.stats c).Cache.c_bytes_reused;
      ignore (Cache.find_slot c "layout" : int list option);
      ignore (Cache.find_slot c "layout" : int list option);
      Alcotest.(check int) "two hits" (2 * n)
        (Cache.stats c).Cache.c_bytes_reused;
      let c2 = Cache.create ~dir () in
      Alcotest.(check (option (list int))) "read from disk" (Some v)
        (Cache.find_slot c2 "layout");
      Alcotest.(check int) "a disk hit" n (Cache.stats c2).Cache.c_bytes_reused)

(* The daemon's executor domains share one store. Domains that overwrite
   and read back their own slot and one shared slot lose no write, never
   read a torn value, and leave statistics that add up exactly. *)
let slots_concurrent () =
  let domains = 3 and rounds = 400 in
  let c = Cache.create () in
  Cache.store_slot c "shared" (0, 0);
  let own d = Printf.sprintf "own-%d" d in
  let worker d () =
    for i = 1 to rounds do
      Cache.store_slot c (own d) i;
      (match (Cache.find_slot c (own d) : int option) with
      | Some v when v = i -> ()
      | _ -> Alcotest.failf "domain %d: own slot lost at round %d" d i);
      Cache.store_slot c "shared" (d, i);
      match (Cache.find_slot c "shared" : (int * int) option) with
      | Some (d', i') when d' >= 0 && d' < domains && i' >= 0 && i' <= rounds
        ->
          ()
      | _ -> Alcotest.failf "domain %d: torn shared slot" d
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  List.iter
    (fun d ->
      Alcotest.(check (option int)) (own d ^ " holds its last write")
        (Some rounds) (Cache.find_slot c (own d)))
    (List.init domains Fun.id);
  let s = Cache.stats c in
  Alcotest.(check (list int)) "hits, misses, stores"
    [ (2 * domains * rounds) + domains; 0; 1 + (2 * domains * rounds) ]
    [ s.Cache.c_hits; s.Cache.c_misses; s.Cache.c_stores ]

(* ------------------------------------------------------------------ *)
(* The daemon's slot store                                             *)
(* ------------------------------------------------------------------ *)

module Protocol = Icfg_service.Protocol
module Server = Icfg_service.Server
module Client = Icfg_service.Client

(* The daemon's shared cache holds layout slots and nothing else: after
   Rewrite requests for k distinct (binary, approach) pairs — each sent
   twice, the replay answered by the response memo — it has stored at
   most one slot per pair. *)
let serve_keeps_only_slots () =
  let bins =
    List.map
      (fun arch ->
        let b = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
        fst (Icfg_workloads.Spec_suite.compile arch b))
      Icfg_isa.Arch.all
  in
  let approaches = List.map fst Icfg_baselines.Baseline.approaches in
  Test_serve.with_server ~workers:2 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  let k = ref 0 in
  List.iter
    (fun bin ->
      List.iter
        (fun approach ->
          incr k;
          for _ = 1 to 2 do
            match Client.rewrite c ~approach bin with
            | Ok (Protocol.Rewritten _ | Protocol.Refused _) -> ()
            | Ok _ -> Alcotest.failf "%s: unexpected response kind" approach
            | Error m -> Alcotest.failf "%s: transport error %s" approach m
          done)
        approaches)
    bins;
  let s = Cache.stats (Server.cache srv) in
  Alcotest.(check bool)
    (Printf.sprintf "%d stores for %d pairs" s.Cache.c_stores !k)
    true
    (s.Cache.c_stores <= !k)

(* Corpus twins — exact duplicates of an earlier entry, name included —
   sent as separate daemon requests: the twin is answered from the
   response memo with the source's bytes and never reaches the
   scheduler, so it stores no layout slot of its own. *)
let serve_twin_memo () =
  let module Corpus = Icfg_workloads.Corpus in
  let entries = Corpus.generate ~seed:7 ~count:10 in
  let twin_entry = List.nth entries 9 in
  let src_id =
    match twin_entry.Corpus.e_twin_of with
    | Some j -> j
    | None -> Alcotest.fail "corpus entry 9 is expected to be a twin"
  in
  let src_bin = Corpus.build (List.nth entries src_id) in
  let twin_bin = Corpus.build twin_entry in
  Test_serve.with_server ~workers:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  let payload what bin =
    match Client.rewrite c ~approach:"ours/jt" bin with
    | Ok r -> Protocol.response_to_payload r
    | Error m -> Alcotest.failf "%s: transport error %s" what m
  in
  let p_src = payload "source" src_bin in
  let snap1 = Server.snapshot srv in
  let stores1 = (Cache.stats (Server.cache srv)).Cache.c_stores in
  let p_twin = payload "twin" twin_bin in
  let snap2 = Server.snapshot srv in
  Alcotest.(check bool) "twin response is byte-identical" true
    (p_src = p_twin);
  Alcotest.(check (pair int int)) "source missed, twin hit the memo" (0, 1)
    ( Test_serve.counter snap1 "response_cache.hit",
      Test_serve.counter snap2 "response_cache.hit" );
  Alcotest.(check int) "twin never entered the scheduler"
    (Test_serve.counter snap1 "sched.jobs")
    (Test_serve.counter snap2 "sched.jobs");
  Alcotest.(check int) "twin stored no slot" stores1
    (Cache.stats (Server.cache srv)).Cache.c_stores

(* The daemon's [cache.*] counters are the slot store's: a rewrite and
   its replay (through a one-byte memo that refuses every response, so
   the replay re-enters the pipeline) miss, then hit, the one layout
   slot, and the snapshot mirrors [Cache.stats] with no stage-cache
   counter left. *)
let serve_slot_counters () =
  let module Metrics = Icfg_core.Metrics in
  let bin = Test_serve.first_bench Icfg_isa.Arch.X86_64 in
  Test_serve.with_server ~workers:1 ~memo_bytes:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  List.iter
    (fun run ->
      match Client.rewrite c ~approach:"ours/jt" bin with
      | Ok (Protocol.Rewritten _) -> ()
      | Ok _ -> Alcotest.failf "%s: unexpected response kind" run
      | Error m -> Alcotest.failf "%s: transport error %s" run m)
    [ "first"; "replay" ];
  let s = Cache.stats (Server.cache srv) in
  Alcotest.(check (list int)) "hits, misses, stores" [ 1; 1; 2 ]
    [ s.Cache.c_hits; s.Cache.c_misses; s.Cache.c_stores ];
  let snap = Server.snapshot srv in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (option int)) name (Some v)
        (Metrics.find_counter snap name))
    [
      ("cache.hits", s.Cache.c_hits);
      ("cache.misses", s.Cache.c_misses);
      ("cache.stores", s.Cache.c_stores);
      ("cache.bytes_reused", s.Cache.c_bytes_reused);
      ("cache.evict_corrupt", s.Cache.c_evict_corrupt);
    ];
  Alcotest.(check (option int)) "no cache.evict_lru" None
    (Metrics.find_counter snap "cache.evict_lru")

(* The frames' [jobs] field is reserved and cannot change an answer, so
   the response memo does not key on it: two Rewrites that differ only
   in [jobs] run the pipeline once, and the second is a memo hit with
   the first's bytes. *)
let serve_memo_ignores_jobs () =
  let bin = Test_serve.first_bench Icfg_isa.Arch.X86_64 in
  let payload = Protocol.Full (Icfg_obj.Binfile.to_string bin) in
  Test_serve.with_server ~workers:1 () @@ fun srv path ->
  Client.with_connection path @@ fun c ->
  let rewrite jobs =
    let req = Protocol.Rewrite { approach = "ours/jt"; jobs; payload } in
    match Client.call c req with
    | Ok (Protocol.Rewritten _ as r) -> Protocol.response_to_payload r
    | Ok _ -> Alcotest.failf "jobs=%d: unexpected response kind" jobs
    | Error m -> Alcotest.failf "jobs=%d: transport error %s" jobs m
  in
  let snap0 = Server.snapshot srv in
  let p1 = rewrite 1 in
  let p2 = rewrite 2 in
  let snap = Server.snapshot srv in
  let delta k = Test_serve.counter snap k - Test_serve.counter snap0 k in
  Alcotest.(check int) "the second request hit the memo" 1
    (delta "response_cache.hit");
  Alcotest.(check int) "the pipeline ran once" 1 (delta "sched.jobs");
  Alcotest.(check bool) "payloads are byte-identical" true (p1 = p2)

let suite =
  [
    ( "cache",
      [
        Alcotest.test_case "clone isolation" `Quick clone_isolation;
        Alcotest.test_case "lru: victim order, refresh, refusal, replace"
          `Quick lru_policy;
        Alcotest.test_case "store: LRU eviction order" `Quick
          store_eviction_order;
        Alcotest.test_case "slots: round-trip, clone, corruption" `Quick
          slot_battery;
        Alcotest.test_case "slots: bytes reused count found payloads" `Quick
          slot_bytes_reused;
        Alcotest.test_case "slots: concurrent domains share one table" `Quick
          slots_concurrent;
        Alcotest.test_case "disk: truncated entry" `Quick disk_truncated;
        Alcotest.test_case "disk: garbage entry" `Quick disk_garbage;
        Alcotest.test_case "disk: empty entry" `Quick disk_empty;
        Alcotest.test_case "disk: version skew" `Quick disk_version_skew;
        Alcotest.test_case "disk: forged payload" `Quick disk_forged_payload;
        Alcotest.test_case "disk: slot copied under another key" `Quick
          disk_foreign_key;
        Alcotest.test_case "serve: daemon keeps only layout slots" `Quick
          serve_keeps_only_slots;
        Alcotest.test_case "serve: twin request answered by the memo" `Quick
          serve_twin_memo;
        Alcotest.test_case "serve: snapshot counts slot lookups" `Quick
          serve_slot_counters;
        Alcotest.test_case "serve: memo ignores the jobs field" `Quick
          serve_memo_ignores_jobs;
      ] );
  ]
