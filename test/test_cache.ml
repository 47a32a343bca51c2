(* The in-memory layout-slot store in isolation: slot round-trips,
   clone semantics, statistics and sharing across domains. Plus the LRU
   policy of the daemon's byte stores, and the daemon's response memo. *)

module Cache = Icfg_core.Cache

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

let slot_battery () =
  let c = Cache.create () in
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
  (* clone carries slots into warm replays; a fresh store starts empty. *)
  let k = Cache.clone c in
  Alcotest.(check (list int)) "clone carries the slot" [ 9 ]
    (Option.get (Cache.find_slot k "layout"));
  Alcotest.(check bool) "a fresh store holds no slot" true
    ((Cache.find_slot (Cache.create ()) "layout" : int list option) = None)


(* [c_bytes_reused] counts the marshalled bytes of the slots found:
   misses and writes add nothing, and a clone's hit counts on the clone
   alone. *)
let slot_bytes_reused () =
  let v = List.init 100 (fun i -> i) in
  let n = String.length (Marshal.to_string v []) in
  let c = Cache.create () in
  ignore (Cache.find_slot c "layout" : int list option);
  Cache.store_slot c "layout" v;
  Alcotest.(check int) "a miss and a write reuse nothing" 0
    (Cache.stats c).Cache.c_bytes_reused;
  ignore (Cache.find_slot c "layout" : int list option);
  ignore (Cache.find_slot c "layout" : int list option);
  Alcotest.(check int) "two hits" (2 * n) (Cache.stats c).Cache.c_bytes_reused;
  let k = Cache.clone c in
  Alcotest.(check (option (list int))) "read through a clone" (Some v)
    (Cache.find_slot k "layout");
  Alcotest.(check (pair int int)) "the clone's hit counts on the clone"
    (n, 2 * n)
    ((Cache.stats k).Cache.c_bytes_reused, (Cache.stats c).Cache.c_bytes_reused)

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
(* The daemon's response memo                                          *)
(* ------------------------------------------------------------------ *)

module Protocol = Icfg_service.Protocol
module Server = Icfg_service.Server
module Client = Icfg_service.Client

(* Corpus twins — exact duplicates of an earlier entry, name included —
   sent as separate daemon requests: the twin is answered from the
   response memo with the source's bytes and never reaches the
   scheduler. *)
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
  let p_twin = payload "twin" twin_bin in
  let snap2 = Server.snapshot srv in
  Alcotest.(check bool) "twin response is byte-identical" true
    (p_src = p_twin);
  Alcotest.(check (pair int int)) "source missed, twin hit the memo" (0, 1)
    ( Test_serve.counter snap1 "response_cache.hit",
      Test_serve.counter snap2 "response_cache.hit" );
  Alcotest.(check int) "twin never entered the scheduler"
    (Test_serve.counter snap1 "sched.jobs")
    (Test_serve.counter snap2 "sched.jobs")

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
        Alcotest.test_case "slots: round-trip, overwrite, clone" `Quick
          slot_battery;
        Alcotest.test_case "slots: bytes reused count found payloads" `Quick
          slot_bytes_reused;
        Alcotest.test_case "slots: concurrent domains share one table" `Quick
          slots_concurrent;
        Alcotest.test_case "serve: twin request answered by the memo" `Quick
          serve_twin_memo;
        Alcotest.test_case "serve: memo ignores the jobs field" `Quick
          serve_memo_ignores_jobs;
      ] );
  ]
