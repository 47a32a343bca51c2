(* The content-addressed cache in isolation: key construction, the
   memo_map contract, clone semantics, and — the part that earns its own
   battery — fault tolerance of the on-disk tier. A corrupt, truncated,
   version-skewed or hand-forged entry must degrade to a silent miss with
   a correct rewrite and a counted eviction; it must never surface as an
   error or as wrong bytes. *)

module Cache = Icfg_core.Cache
module Runner = Icfg_harness.Runner
module Key = Icfg_obj.Key

let spec_bin () =
  let arch = Icfg_isa.Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let key_injectivity () =
  (* Length-prefixing makes adjacent parts unable to alias. *)
  Alcotest.(check bool) "kjoin [ab;c] <> kjoin [a;bc]" true
    (Key.kjoin [ "ab"; "c" ] <> Key.kjoin [ "a"; "bc" ]);
  Alcotest.(check bool) "kjoin [] <> kjoin [empty]" true
    (Key.kjoin [] <> Key.kjoin [ "" ]);
  (* dval is structural: equal values digest equally however built. *)
  let a = [ 1; 2; 3 ] in
  let b = 1 :: List.tl [ 0; 2; 3 ] in
  Alcotest.(check string) "dval structural" (Key.dval a) (Key.dval b)

(* ------------------------------------------------------------------ *)
(* memo_map contract                                                   *)
(* ------------------------------------------------------------------ *)

let memo_map_no_cache () =
  (* Without a cache, memo_map is Pool.map and the key function is never
     consulted. *)
  let xs = List.init 100 (fun i -> i) in
  let r =
    Cache.memo_map ~jobs:4 ~stage:"t"
      ~key:(fun _ -> Alcotest.fail "key called without a cache")
      (fun x -> x * x)
      xs
  in
  Alcotest.(check (list int)) "identity with Pool.map" (List.map (fun x -> x * x) xs) r

let memo_map_basic () =
  let c = Cache.create () in
  let xs = List.init 50 (fun i -> i) in
  let calls = Atomic.make 0 in
  let f x =
    Atomic.incr calls;
    (x, string_of_int x)
  in
  let key x = Key.dval x in
  let r1 = Cache.memo_map ~cache:c ~jobs:2 ~stage:"t" ~key f xs in
  Alcotest.(check int) "cold: one call per item" 50 (Atomic.get calls);
  let r2 = Cache.memo_map ~cache:c ~jobs:2 ~stage:"t" ~key f xs in
  Alcotest.(check int) "warm: no new calls" 50 (Atomic.get calls);
  Alcotest.(check bool) "warm result identical" true (r1 = r2);
  let s = Cache.stats c in
  Alcotest.(check int) "misses" 50 s.Cache.c_misses;
  Alcotest.(check int) "hits" 50 s.Cache.c_hits;
  Alcotest.(check int) "stores" 50 s.Cache.c_stores;
  (* Same raw key under a different stage tag is a different entry. *)
  let r3 = Cache.memo_map ~cache:c ~jobs:1 ~stage:"u" ~key f xs in
  Alcotest.(check int) "stage tag separates entries" 100 (Atomic.get calls);
  Alcotest.(check bool) "other-stage result identical" true (r1 = r3)

let clone_isolation () =
  let c = Cache.create () in
  let xs = [ 1; 2; 3 ] in
  let f x = x + 1 in
  let key x = Key.dval x in
  ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f xs);
  let k = Cache.clone c in
  Alcotest.(check int) "clone stats start at zero" 0 (Cache.stats k).Cache.c_hits;
  ignore (Cache.memo_map ~cache:k ~jobs:1 ~stage:"t" ~key f xs);
  Alcotest.(check int) "clone serves the copied entries" 3
    (Cache.stats k).Cache.c_hits;
  (* New entries stored into the clone do not leak back. *)
  ignore (Cache.memo_map ~cache:k ~jobs:1 ~stage:"t" ~key f [ 99 ]);
  ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f [ 99 ]);
  Alcotest.(check int) "original missed the clone's entry" 4
    (Cache.stats c).Cache.c_misses

(* ------------------------------------------------------------------ *)
(* Disk-tier fault tolerance                                           *)
(* ------------------------------------------------------------------ *)

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

(* Warm an on-disk store with a full rewrite, mangle one entry with
   [damage], then rewrite through a fresh cache over the same directory:
   the output must still be byte-identical to the uncached rewrite, the
   damaged entry must be silently evicted (one counted eviction, one
   miss), and everything else must hit. *)
let damage_case ~what damage =
  Test_parallel.with_temp_dir (fun dir ->
      let bin = spec_bin () in
      let options = Test_parallel.opts Icfg_core.Mode.Jt in
      let uncached = Runner.rewrite ~options ~jobs:1 bin in
      let c1 = Cache.create ~dir () in
      ignore (Runner.rewrite ~options ~jobs:1 ~cache:c1 bin);
      let total = (Cache.stats c1).Cache.c_misses in
      let victim =
        match Cache.entry_files c1 with
        | f :: _ -> f
        | [] -> Alcotest.fail "no on-disk entries after a cold rewrite"
      in
      damage victim;
      let c2 = Cache.create ~dir () in
      let rw = Runner.rewrite ~options ~jobs:1 ~cache:c2 bin in
      Test_parallel.check_same ~what uncached rw;
      let s = Cache.stats c2 in
      Alcotest.(check int) (what ^ ": one eviction") 1 s.Cache.c_evict_corrupt;
      Alcotest.(check int) (what ^ ": one miss") 1 s.Cache.c_misses;
      Alcotest.(check int) (what ^ ": rest hits") (total - 1) s.Cache.c_hits;
      (* The miss re-stored a valid entry: a third run is all hits. *)
      let c3 = Cache.create ~dir () in
      ignore (Runner.rewrite ~options ~jobs:1 ~cache:c3 bin);
      Alcotest.(check int) (what ^ ": store healed") 0
        (Cache.stats c3).Cache.c_misses)

let disk_truncated () =
  damage_case ~what:"truncated entry" (fun path ->
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s / 2)))

let disk_garbage () =
  damage_case ~what:"garbage entry" (fun path ->
      write_file path (String.make 64 '\xfe'))

let disk_empty () =
  damage_case ~what:"empty entry" (fun path -> write_file path "")

let disk_version_skew () =
  (* A future format version: same layout, bumped magic. Must read as
     stale, not as valid. *)
  damage_case ~what:"version-skewed entry" (fun path ->
      let s = read_file path in
      let i = String.index s '\n' in
      write_file path ("icfgcache/2" ^ String.sub s i (String.length s - i)))

let disk_forged_payload () =
  (* A foreign writer with a self-consistent entry (magic, key echo,
     length and digest all valid) around a payload that is not a marshal
     image. The disk layer accepts it; memo_map must catch the unmarshal
     failure, evict, and recompute. *)
  damage_case ~what:"forged payload" (fun path ->
      let key = Filename.chop_suffix (Filename.basename path) ".entry" in
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

(* ------------------------------------------------------------------ *)
(* Disk-tier size bound (LRU)                                          *)
(* ------------------------------------------------------------------ *)

(* Payloads dwarf the per-entry framing, so "how many entries fit" is
   easy to pin: a bound of three payloads holds exactly the three most
   recently stored of eight. Eviction loses only the disk file — the
   in-memory copies keep serving — and a fresh cache over the directory
   misses exactly the five oldest. *)
let disk_lru_bound () =
  Test_parallel.with_temp_dir (fun dir ->
      let calls = ref [] in
      let f x =
        calls := x :: !calls;
        String.make 2048 (Char.chr (x land 0xff))
      in
      let key x = Key.dval x in
      let xs = List.init 8 (fun i -> i) in
      let c = Cache.create ~dir ~max_disk_bytes:(3 * 2200) () in
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f xs);
      let s = Cache.stats c in
      Alcotest.(check int) "evictions counted" 5 s.Cache.c_evict_lru;
      Alcotest.(check int) "bound holds three disk entries" 3
        (List.length (Cache.entry_files c));
      (* The in-memory tier kept every evicted entry. *)
      calls := [];
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f xs);
      Alcotest.(check (list int)) "warm run recomputes nothing" [] !calls;
      Alcotest.(check int) "warm run all hits" 8 (Cache.stats c).Cache.c_hits;
      (* A fresh cache sees only the survivors: the five oldest stores
         lost their files and recompute. *)
      let c2 = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:c2 ~jobs:1 ~stage:"t" ~key f xs);
      let s2 = Cache.stats c2 in
      Alcotest.(check int) "survivors hit" 3 s2.Cache.c_hits;
      Alcotest.(check int) "evicted miss" 5 s2.Cache.c_misses;
      Alcotest.(check (list int)) "victims were the oldest" [ 0; 1; 2; 3; 4 ]
        (List.sort compare !calls))

(* A disk hit refreshes the entry's LRU tick: entries seeded from a
   pre-existing store are all equally cold, and touching one protects it
   from the next eviction. *)
let disk_lru_refresh () =
  Test_parallel.with_temp_dir (fun dir ->
      let f x = String.make 2048 (Char.chr (x land 0xff)) in
      let key x = Key.dval x in
      let seed = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:seed ~jobs:1 ~stage:"t" ~key f [ 0; 1; 2 ]);
      let c = Cache.create ~dir ~max_disk_bytes:(3 * 2200) () in
      (* Disk hit on item 0: its tick is now newer than the other seeds. *)
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f [ 0 ]);
      (* A fourth store overflows the bound; the victim must be one of
         the untouched seeds. *)
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f [ 3 ]);
      Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.c_evict_lru;
      let c2 = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:c2 ~jobs:1 ~stage:"t" ~key f [ 0 ]);
      Alcotest.(check int) "the touched seed survived" 1
        (Cache.stats c2).Cache.c_hits)

(* An entry larger than the whole bound is refused by the disk tier: it
   keeps only its in-memory copy (counted as an LRU eviction) and flushes
   none of the entries that fit. *)
let disk_lru_oversized () =
  Test_parallel.with_temp_dir (fun dir ->
      let f n = String.make n 'x' in
      let key n = Key.dval n in
      let c = Cache.create ~dir ~max_disk_bytes:2200 () in
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f [ 1024 ]);
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f [ 4096 ]);
      Alcotest.(check int) "oversized entry dropped from disk" 1
        (Cache.stats c).Cache.c_evict_lru;
      ignore (Cache.memo_map ~cache:c ~jobs:1 ~stage:"t" ~key f [ 4096 ]);
      Alcotest.(check int) "oversized entry still served from memory" 1
        (Cache.stats c).Cache.c_hits;
      (* A fresh cache over the directory finds exactly the entry that
         fits. *)
      let c2 = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:c2 ~jobs:1 ~stage:"t" ~key f [ 1024 ]);
      Alcotest.(check int) "small entry on disk" 1
        (Cache.stats c2).Cache.c_hits;
      ignore (Cache.memo_map ~cache:c2 ~jobs:1 ~stage:"t" ~key f [ 4096 ]);
      Alcotest.(check int) "oversized entry not on disk" 1
        (Cache.stats c2).Cache.c_misses)

(* The shared LRU policy in isolation (the disk tier above and the
   daemon's stores both evict through it). *)
module Lru = Icfg_core.Lru

let lru_policy () =
  let evict lru k size =
    match Lru.add lru k () ~size with
    | Some victims -> victims
    | None -> Alcotest.failf "add %s refused" k
  in
  (* Seeded entries tie on tick: they go in key order, before anything
     added since. *)
  let lru = Lru.create ~capacity:10 () in
  List.iter (fun k -> Lru.seed lru k () ~size:3) [ "c"; "a"; "b" ];
  Alcotest.(check int) "seeded footprint" 9 (Lru.total lru);
  Alcotest.(check (list string)) "seeds evicted in key order" [ "a"; "b" ]
    (evict lru "x" 5);
  Alcotest.(check (list string)) "then the last seed" [ "c" ]
    (evict lru "y" 4);
  (* A hit refreshes: "x" outlives the older "y". *)
  ignore (Lru.find lru "x");
  Alcotest.(check (list string)) "untouched entry goes first" [ "y" ]
    (evict lru "z" 4);
  Alcotest.(check bool) "refreshed entry kept" true (Lru.mem lru "x");
  (* Oversized values are refused and change nothing. *)
  let before = (Lru.total lru, Lru.length lru) in
  Alcotest.(check bool) "oversized refused" true
    (Lru.add lru "huge" () ~size:11 = None);
  Alcotest.(check (pair int int)) "refusal changes nothing" before
    (Lru.total lru, Lru.length lru);
  (* Replacing a key keeps the footprint exact and never evicts the key
     itself. *)
  Alcotest.(check (list string)) "replace fits without eviction" []
    (evict lru "z" 2);
  Alcotest.(check (pair int int)) "footprint after same-key replace" (7, 2)
    (Lru.total lru, Lru.length lru);
  Alcotest.(check (list string)) "full-capacity replace evicts the rest"
    [ "x" ] (evict lru "z" 10);
  Alcotest.(check (pair int int)) "only the replaced key left" (10, 1)
    (Lru.total lru, Lru.length lru)

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
  Test_parallel.with_temp_dir (fun dir ->
      let c = Cache.create ~dir () in
      Alcotest.(check bool) "absent initially" true
        ((Cache.find_slot c "layout" : int list option) = None);
      Cache.store_slot c "layout" [ 1; 2; 3 ];
      Alcotest.(check (list int)) "round-trip" [ 1; 2; 3 ]
        (Option.get (Cache.find_slot c "layout"));
      Cache.store_slot c "layout" [ 9 ];
      Alcotest.(check (list int)) "overwrite" [ 9 ]
        (Option.get (Cache.find_slot c "layout"));
      (* Slots are invisible to statistics and the entry tier. *)
      let s = Cache.stats c in
      Alcotest.(check int) "no hits" 0 s.Cache.c_hits;
      Alcotest.(check int) "no misses" 0 s.Cache.c_misses;
      Alcotest.(check int) "no stores" 0 s.Cache.c_stores;
      Alcotest.(check (list string)) "no entry files" [] (Cache.entry_files c);
      Alcotest.(check int) "one slot file" 1 (List.length (slot_files dir));
      (* clone carries slots into warm replays (and drops the disk tier). *)
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

(* ------------------------------------------------------------------ *)
(* Cross-request reuse through the serve daemon                        *)
(* ------------------------------------------------------------------ *)

module Corpus = Icfg_workloads.Corpus
module Protocol = Icfg_service.Protocol
module Server = Icfg_service.Server
module Client = Icfg_service.Client

let rewritten_counters ~what = function
  | Ok (Protocol.Rewritten { counters; _ }) -> counters
  | Ok _ -> Alcotest.failf "%s: unexpected response kind" what
  | Error m -> Alcotest.failf "%s: transport error %s" what m

(* The PR 6 twin entries, as separate daemon requests: the daemon's one
   cross-request cache makes the twin's rewrite hit on every stage the
   source stored — zero misses in any text stage (or anywhere else),
   and exactly as many hits as the source had misses. This is the
   cross-request payoff the serve mode exists for. *)
let serve_twin_hits () =
  let entries = Corpus.generate ~seed:7 ~count:10 in
  let twin_entry = List.nth entries 9 in
  let src_id =
    match twin_entry.Corpus.e_twin_of with
    | Some j -> j
    | None -> Alcotest.fail "corpus entry 9 is expected to be a twin"
  in
  let src_bin = Corpus.build (List.nth entries src_id) in
  let twin_bin = Corpus.build twin_entry in
  Test_serve.with_server ~workers:1 () @@ fun _srv path ->
  Client.with_connection path @@ fun c ->
  let c_src =
    rewritten_counters ~what:"source request"
      (Client.rewrite c ~approach:"ours/jt" src_bin)
  in
  (* The twin is byte-identical to the source, so at equal jobs the
     daemon would answer it from the whole-response memo without running
     anything — correct service behavior, but this test pins the *stage*
     cache. jobs=2 changes the memo key (never the counters: totals are
     jobs-independent), forcing a real pipeline run over the shared
     cache. *)
  let c_twin =
    rewritten_counters ~what:"twin request"
      (Client.rewrite c ~approach:"ours/jt" ~jobs:2 twin_bin)
  in
  let get l n = Option.value ~default:0 (List.assoc_opt n l) in
  Alcotest.(check bool) "source request ran cold" true
    (get c_src "cache.miss" > 0 && get c_src "cache.hit" = 0);
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "twin request: zero misses in %s" stage)
        0
        (get c_twin ("cache.miss:" ^ stage)))
    [
      "parse/pass1"; "parse/fptr"; "parse/finalize"; "parse/fptr2";
      "rewrite/relocate"; "rewrite/plan"; "encode";
    ];
  Alcotest.(check int) "twin request: zero misses anywhere" 0
    (get c_twin "cache.miss");
  Alcotest.(check int) "twin hits everything the source stored"
    (get c_src "cache.miss") (get c_twin "cache.hit")

(* The LRU disk bound holds while requests are in flight: concurrent
   requests store through the daemon's shared disk-backed cache, and
   when the dust settles the entry tier is within the bound with the
   evictions counted — no request ever saw an error. *)
let serve_lru_eviction () =
  Test_parallel.with_temp_dir @@ fun dir ->
  let bound = 64 * 1024 in
  let cache = Cache.create ~dir ~max_disk_bytes:bound () in
  let bins =
    List.map
      (fun arch ->
        let b = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
        fst (Icfg_workloads.Spec_suite.compile arch b))
      Icfg_isa.Arch.all
  in
  Test_serve.with_server ~workers:2 ~cache () @@ fun srv path ->
  let threads =
    List.map
      (fun bin ->
        Thread.create
          (fun () ->
            Client.with_connection path @@ fun c ->
            ignore
              (rewritten_counters ~what:"in-flight rewrite"
                 (Client.rewrite c ~approach:"ours/jt" bin)))
          ())
      bins
  in
  List.iter Thread.join threads;
  let st = Server.stats srv in
  Alcotest.(check int) "no error responses" 0 st.Server.errors;
  let cstats = Cache.stats (Server.cache srv) in
  Alcotest.(check bool) "evictions happened under service" true
    (cstats.Cache.c_evict_lru > 0);
  let disk_bytes =
    List.fold_left
      (fun acc f -> acc + (Unix.stat f).Unix.st_size)
      0 (Cache.entry_files cache)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disk entry tier within bound (%d <= %d)" disk_bytes bound)
    true (disk_bytes <= bound)

let suite =
  [
    ( "cache",
      [
        Alcotest.test_case "key injectivity" `Quick key_injectivity;
        Alcotest.test_case "memo_map: no cache = Pool.map" `Quick
          memo_map_no_cache;
        Alcotest.test_case "memo_map: basic hit/miss/stage" `Quick
          memo_map_basic;
        Alcotest.test_case "clone isolation" `Quick clone_isolation;
        Alcotest.test_case "disk: truncated entry" `Quick disk_truncated;
        Alcotest.test_case "disk: garbage entry" `Quick disk_garbage;
        Alcotest.test_case "disk: empty entry" `Quick disk_empty;
        Alcotest.test_case "disk: version skew" `Quick disk_version_skew;
        Alcotest.test_case "disk: forged payload" `Quick disk_forged_payload;
        Alcotest.test_case "disk: LRU size bound" `Quick disk_lru_bound;
        Alcotest.test_case "disk: LRU hit refresh" `Quick disk_lru_refresh;
        Alcotest.test_case "disk: entry over the whole bound" `Quick
          disk_lru_oversized;
        Alcotest.test_case "lru: victim order, refresh, refusal, replace"
          `Quick lru_policy;
        Alcotest.test_case "store: LRU eviction order" `Quick
          store_eviction_order;
        Alcotest.test_case "slots: round-trip, clone, corruption" `Quick
          slot_battery;
        Alcotest.test_case "serve: twin cross-request all-hits" `Slow
          serve_twin_hits;
        Alcotest.test_case "serve: LRU bound under in-flight requests" `Quick
          serve_lru_eviction;
      ] );
  ]
