(* Determinism battery for the sharded rewriting engine.

   The contract under test (lib/core/pool.mli, Rewriter.options.jobs): for
   every jobs value the rewritten binary is bit-for-bit identical to the
   serial run — same section bytes, same stats, same RA map, same trap and
   counter maps, same dynamic relocations.  The battery covers every
   spec-suite binary on every architecture in every mode, the option
   variants that exercise different placement machinery, parallel parsing,
   Go binaries, and a random-program differential property. *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Parse = Icfg_analysis.Parse
module Runner = Icfg_harness.Runner
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Ra_map = Icfg_runtime.Runtime_lib.Ra_map

(* ------------------------------------------------------------------ *)
(* Structural comparison of two rewrites                               *)
(* ------------------------------------------------------------------ *)

let section_image (s : Section.t) =
  (s.Section.name, s.Section.vaddr, Bytes.to_string s.Section.data,
   s.Section.perm, s.Section.loaded)

let sorted_tbl tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Everything observable about a rewrite except [rw_relocated_entry]
   (a closure; its behaviour is pinned by the trap map and RA map). *)
let fingerprint (rw : Rewriter.t) =
  let bin = rw.Rewriter.rw_binary in
  ( List.map section_image bin.Binary.sections,
    (bin.Binary.entry, bin.Binary.pie, bin.Binary.relocs, bin.Binary.symbols),
    rw.Rewriter.rw_stats,
    Ra_map.pairs rw.Rewriter.rw_ra_map,
    ( sorted_tbl rw.Rewriter.rw_trap_map,
      sorted_tbl rw.Rewriter.rw_counter_of_site,
      sorted_tbl rw.Rewriter.rw_dt_sites,
      rw.Rewriter.rw_go_hook,
      rw.Rewriter.rw_translate_hook ) )

let equal_rewrite a b = fingerprint a = fingerprint b

(* Describe the first difference; "" when identical. *)
let diff_rewrite a b =
  let (sa, ba, sta, ra, ma) = fingerprint a in
  let (sb, bb, stb, rb, mb) = fingerprint b in
  if sa <> sb then
    match
      List.find_opt
        (fun ((n, v, d, p, l), (n', v', d', p', l')) ->
          (n, v, p, l) <> (n', v', p', l') || d <> d')
        (try List.combine sa sb with Invalid_argument _ -> [])
    with
    | Some ((n, v, _, _, _), _) ->
        Printf.sprintf "section %s@0x%x differs" n v
    | None -> "section lists differ in length"
  else if ba <> bb then "binary header/relocs/symbols differ"
  else if sta <> stb then "stats differ"
  else if ra <> rb then "RA maps differ"
  else if ma <> mb then "runtime maps differ"
  else ""

let check_same ~what serial parallel =
  let d = diff_rewrite serial parallel in
  Alcotest.(check string) what "" d

(* ------------------------------------------------------------------ *)
(* Spec-suite battery: every binary, arch, mode; jobs in {2,4,8}       *)
(* ------------------------------------------------------------------ *)

let opts mode = { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

let spec_battery arch () =
  List.iter
    (fun bench ->
      let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
      List.iter
        (fun mode ->
          let options = opts mode in
          let serial = Runner.rewrite ~options ~jobs:1 bin in
          List.iter
            (fun jobs ->
              let par = Runner.rewrite ~options ~jobs bin in
              check_same
                ~what:
                  (Printf.sprintf "%s/%s/%s jobs=%d"
                     bench.Icfg_workloads.Spec_suite.bench_name
                     (Arch.name arch) (Mode.name mode) jobs)
                serial par)
            [ 2; 4; 8 ])
        Mode.all)
    (Icfg_workloads.Spec_suite.benchmarks arch)

(* ------------------------------------------------------------------ *)
(* Option variants: each exercises a different placement/codegen path  *)
(* ------------------------------------------------------------------ *)

let variants =
  [
    ("srbi-like", Rewriter.srbi_like Rewriter.P_count);
    ( "reverse-funcs",
      { (opts Mode.Jt) with Rewriter.order = `Reverse_funcs } );
    ( "reverse-blocks",
      { (opts Mode.Jt) with Rewriter.order = `Reverse_blocks } );
    ( "sparse-placement",
      {
        (opts Mode.Func_ptr) with
        Rewriter.granularity = Rewriter.G_func_entry;
        overwrite_original = false;
        sparse_placement = true;
      } );
    ("dyn-translate", { (opts Mode.Jt) with Rewriter.dyn_translate = true });
  ]

let variant_battery () =
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  List.iter
    (fun (name, options) ->
      let serial = Runner.rewrite ~options ~jobs:1 bin in
      List.iter
        (fun jobs ->
          let par = Runner.rewrite ~options ~jobs bin in
          check_same ~what:(Printf.sprintf "%s jobs=%d" name jobs) serial par)
        [ 2; 4; 8 ])
    variants

(* ------------------------------------------------------------------ *)
(* Parallel parsing is deterministic                                   *)
(* ------------------------------------------------------------------ *)

(* CFGs carry hashtables, so compare a projection instead of the whole
   structure: per block, its start and live-in registers. The full
   function-pointer site list is included: the per-CFG scans shard across
   domains, and both site order and site contents must be
   schedule-independent. *)
let parse_view (p : Parse.t) =
  ( List.map
      (fun fa ->
        ( fa.Parse.fa_sym.Icfg_obj.Symbol.name,
          fa.Parse.fa_sym.Icfg_obj.Symbol.addr,
          fa.Parse.fa_instrumentable,
          fa.Parse.fa_fail_reason,
          List.map
            (fun (b : Icfg_analysis.Cfg.block) ->
              ( b.Icfg_analysis.Cfg.b_start,
                Reg.Set.elements
                  (Icfg_analysis.Liveness.live_in fa.Parse.fa_liveness
                     b.Icfg_analysis.Cfg.b_start) ))
            fa.Parse.fa_cfg.Icfg_analysis.Cfg.blocks,
          List.length fa.Parse.fa_tables,
          fa.Parse.fa_tail_jumps ))
      p.Parse.funcs,
    p.Parse.fptrs,
    p.Parse.pointer_targets )

let parse_battery () =
  List.iter
    (fun arch ->
      let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
      let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
      let serial = parse_view (Runner.parse ~jobs:1 bin) in
      List.iter
        (fun jobs ->
          let par = parse_view (Runner.parse ~jobs bin) in
          Alcotest.(check bool)
            (Printf.sprintf "parse %s jobs=%d" (Arch.name arch) jobs)
            true (serial = par))
        [ 2; 4; 8 ])
    Arch.all

(* ------------------------------------------------------------------ *)
(* Sharded function-pointer analysis is deterministic                  *)
(* ------------------------------------------------------------------ *)

module Func_ptr = Icfg_analysis.Func_ptr

(* The per-CFG scans go through the same runner map the parse uses. *)
let pool_map jobs ~key f l =
  (Cache.runner ~jobs ()).Parse.map ~stage:"t" ~key f l

let funcptr_battery () =
  List.iter
    (fun arch ->
      let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
      let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
      let p = Runner.parse ~jobs:1 bin in
      let cfgs = List.map (fun fa -> fa.Parse.fa_cfg) p.Parse.funcs in
      let fm = Icfg_analysis.Failure_model.ours in
      let serial = Func_ptr.analyze bin fm cfgs in
      List.iter
        (fun jobs ->
          let par = Func_ptr.analyze ~map:(pool_map jobs) bin fm cfgs in
          Alcotest.(check bool)
            (Printf.sprintf "func-ptr %s jobs=%d" (Arch.name arch) jobs)
            true (serial = par))
        [ 2; 4; 8 ])
    Arch.all

(* ------------------------------------------------------------------ *)
(* Sharded section encoding is byte-identical for any chunking         *)
(* ------------------------------------------------------------------ *)

module Asm = Icfg_codegen.Asm

(* Split a layout's items into [k] contiguous chunks (clamped to the item
   count), uneven when [k] does not divide it. Zero-size items (labels)
   make some chunks degenerate: empty address extents. *)
let tile (lay : Asm.layout) k =
  let items = Array.of_list lay.Asm.items in
  let n = Array.length items in
  let k = max 1 (min k n) in
  let addr_of i = if i >= n then lay.Asm.l_end else snd items.(i) in
  List.init k (fun c ->
      let i0 = c * n / k and i1 = (c + 1) * n / k in
      {
        Asm.c_items = Array.to_list (Array.sub items i0 (i1 - i0));
        c_lo = addr_of i0;
        c_hi = addr_of i1;
      })

(* An item stream exercising every boundary shape a chunk split can cut
   through: zero-size labels, address-dependent alignment, multi-insn
   materializations, raw bytes, space, and data words that resolve labels
   both backwards and forwards (and emit relocs under PIE). *)
let shard_items n =
  List.concat
    (List.init n (fun i ->
         [
           Asm.Label (Printf.sprintf "S%d" i);
           Asm.Insn (Insn.Mov (Reg.r0, Imm (i * 7)));
           Asm.Jcc_to (Insn.Eq, Printf.sprintf "S%d" (i / 2));
           Asm.Align (8, `Nop);
           Asm.Data
             ( Insn.W64,
               Asm.Addr (Printf.sprintf "S%d" (min (n - 1) (i + 1))),
               `Reloc );
           Asm.Data (Insn.W32, Asm.Diff (Printf.sprintf "S%d" i, "S0", 1), `No_reloc);
           (* sizes stay multiples of 4 so RISC branch targets remain
              aligned, as in any real item stream *)
           Asm.Raw "abcd";
           Asm.Space 4;
           Asm.Mater_const (Reg.r0, 0x400000 + (i * 16));
         ]))

let asm_shard_battery () =
  List.iter
    (fun arch ->
      List.iter
        (fun pie ->
          let labels = Hashtbl.create 256 in
          let lay =
            Asm.layout arch ~pie ~labels ~base:0x400000 (shard_items 97)
          in
          let serial_bytes, serial_relocs =
            Asm.encode arch ~pie ~toc:0 ~labels lay
          in
          List.iter
            (fun chunks ->
              let bytes, relocs =
                Asm.encode_chunks arch ~pie ~toc:0 ~labels ~map:(pool_map 4)
                  lay (tile lay chunks)
              in
              let what =
                Printf.sprintf "encode %s pie=%b chunks=%d" (Arch.name arch)
                  pie chunks
              in
              Alcotest.(check bool)
                (what ^ " bytes") true
                (Bytes.equal serial_bytes bytes);
              Alcotest.(check bool)
                (what ^ " relocs") true (serial_relocs = relocs))
            [ 2; 3; 7; 16; 64; 1000 ])
        [ false; true ])
    Arch.all

(* ------------------------------------------------------------------ *)
(* Pool: shared growth, lane clamping, fail-fast on exceptions         *)
(* ------------------------------------------------------------------ *)

module Pool = Icfg_core.Pool

let pool_shared_growth () =
  let xs = List.init 64 (fun i -> i) in
  let run jobs = Pool.map ~jobs (fun x -> x * x) xs in
  let want = List.map (fun x -> x * x) xs in
  Alcotest.(check (list int)) "jobs=2 result" want (run 2);
  let w2 = Pool.live_workers () in
  Alcotest.(check (list int)) "jobs=8 result" want (run 8);
  let w8 = Pool.live_workers () in
  Alcotest.(check (list int)) "jobs=4 result" want (run 4);
  let w4 = Pool.live_workers () in
  (* One shared pool: growing to 8 lanes then mapping with 4 spawns
     nothing new, and the total never exceeds the clamp (lanes are capped
     at recommended_jobs, the caller being one lane). *)
  Alcotest.(check bool) "monotone growth" true (w2 <= w8);
  Alcotest.(check int) "no extra pool for smaller jobs" w8 w4;
  Alcotest.(check bool) "clamped to recommended_jobs" true
    (w8 <= max 0 (Pool.recommended_jobs () - 1) && w8 <= 7)

exception Boom of int

let pool_fail_fast () =
  let n = 10_000 in
  let arr = Array.init n (fun i -> i) in
  let calls = Atomic.make 0 in
  let f i =
    Atomic.incr calls;
    raise (Boom i)
  in
  (match Pool.map_array ~jobs:8 f arr with
  | _ -> Alcotest.fail "expected the failure to propagate"
  | exception Boom _ -> ());
  (* Every call raises, so the first call on each lane records the
     failure; after that the steal loop only drains indices without
     applying [f]. Anything near [n] calls would mean the batch kept
     doing the wasted work. *)
  Alcotest.(check bool)
    (Printf.sprintf "aborted promptly (%d calls)" (Atomic.get calls))
    true
    (Atomic.get calls <= 8)

let pool_partial_failure () =
  let xs = List.init 1000 (fun i -> i) in
  (match Pool.map ~jobs:4 (fun x -> if x = 500 then failwith "mid" else x) xs with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m -> Alcotest.(check string) "message" "mid" m);
  (* The pool survives a failed batch and serves later ones. *)
  Alcotest.(check (list int))
    "pool usable after failure"
    (List.map (fun x -> x + 1) xs)
    (Pool.map ~jobs:4 (fun x -> x + 1) xs)

(* The impossible-state diagnostic: if a result slot were ever left
   unfilled, the raised exception names the slot and the lane that
   claimed it instead of a bare [Assert_failure]. *)
let pool_incomplete_diag () =
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let msg =
    Printexc.to_string (Pool.Incomplete_map { lane = 2; index = 5; total = 9 })
  in
  Alcotest.(check bool)
    (Printf.sprintf "names the slot (%s)" msg)
    true (contains msg "5/9");
  Alcotest.(check bool)
    (Printf.sprintf "names the lane (%s)" msg)
    true (contains msg "lane 2")

(* ------------------------------------------------------------------ *)
(* Go binaries (hooks + vtable paths)                                  *)
(* ------------------------------------------------------------------ *)

let go_battery () =
  List.iter
    (fun arch ->
      let adjust = if arch = Arch.X86_64 then 1 else 4 in
      let spec = Gen.go_spec ~seed:7 ~name:"goparallel" ~iters:5 in
      let prog = Gen.build_go ~vtab_check:false ~goexit_adjust:adjust spec in
      let bin, _ = Icfg_codegen.Compile.compile ~pie:true arch prog in
      let options = opts Mode.Jt in
      let serial = Runner.rewrite ~options ~jobs:1 bin in
      List.iter
        (fun jobs ->
          let par = Runner.rewrite ~options ~jobs bin in
          check_same
            ~what:(Printf.sprintf "go/%s jobs=%d" (Arch.name arch) jobs)
            serial par)
        [ 2; 4 ])
    Arch.all

(* ------------------------------------------------------------------ *)
(* Incremental cache: cached == uncached, jobs-independent counters,   *)
(* per-function invalidation                                           *)
(* ------------------------------------------------------------------ *)

module Cache = Icfg_core.Cache
module Trace = Icfg_core.Trace

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "icfgcache-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir))
    (fun () -> f dir)

(* Every uncached rewrite lays out and encodes through the same pinned,
   per-function-chunk path a cached one takes, so the equivalence is
   checked across ISAs and corpus shapes: the first spec binary of each
   ISA plus the first seed-7 corpus entry of every shape except the
   35 MiB starved one. *)
let cache_inputs () =
  let spec =
    List.map
      (fun arch ->
        let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
        ( Printf.sprintf "%s/%s" (Arch.name arch)
            bench.Icfg_workloads.Spec_suite.bench_name,
          fst (Icfg_workloads.Spec_suite.compile arch bench) ))
      Arch.all
  in
  let module Corpus = Icfg_workloads.Corpus in
  let entries =
    Corpus.generate ~seed:7 ~count:(Array.length Corpus.all_shapes)
  in
  let corpus =
    List.filter_map
      (fun (e : Corpus.entry) ->
        if e.Corpus.e_shape = Corpus.Starved then None
        else
          Some
            ( Printf.sprintf "corpus%d/%s" e.Corpus.e_id
                (Corpus.shape_name e.Corpus.e_shape),
              Corpus.build e ))
      entries
  in
  spec @ corpus

(* Cached rewrites are byte-identical to uncached ones for every input,
   mode and jobs value, cold and warm alike, and the hit/miss statistics
   are jobs-independent (the observation-safety requirement). *)
let cache_battery () =
  List.iter
    (fun (name, bin) ->
      List.iter
        (fun mode ->
          let what fmt =
            Printf.ksprintf
              (fun s -> Printf.sprintf "%s %s %s" name (Mode.name mode) s)
              fmt
          in
          let options = opts mode in
          let uncached = Runner.rewrite ~options ~jobs:1 bin in
          let stats_by_jobs =
            List.map
              (fun jobs ->
                let c = Cache.create () in
                let cold = Runner.rewrite ~options ~jobs ~cache:c bin in
                check_same ~what:(what "cold jobs=%d" jobs) uncached cold;
                let cold_stats = Cache.stats c in
                Alcotest.(check int)
                  (what "cold jobs=%d: no hits" jobs)
                  0 cold_stats.Cache.c_hits;
                Alcotest.(check bool)
                  (what "cold jobs=%d: misses" jobs)
                  true
                  (cold_stats.Cache.c_misses > 0);
                (* Warm replay through a clone: fresh statistics, shared
                   entries. Everything per-function must hit. *)
                let wc = Cache.clone c in
                let warm = Runner.rewrite ~options ~jobs ~cache:wc bin in
                check_same ~what:(what "warm jobs=%d" jobs) uncached warm;
                let warm_stats = Cache.stats wc in
                Alcotest.(check int)
                  (what "warm jobs=%d: no misses" jobs)
                  0 warm_stats.Cache.c_misses;
                Alcotest.(check int)
                  (what "warm jobs=%d: all hits" jobs)
                  cold_stats.Cache.c_misses warm_stats.Cache.c_hits;
                (cold_stats, warm_stats))
              [ 1; 2; 4 ]
          in
          match stats_by_jobs with
          | ref_stats :: rest ->
              List.iteri
                (fun i s ->
                  Alcotest.(check bool)
                    (what "stats jobs-independent (%d)" i)
                    true (s = ref_stats))
                rest
          | [] -> ())
        Mode.all)
    (cache_inputs ())

(* The on-disk tier: a second cache instance over the same directory (a
   fresh process in real life) serves every per-function artifact from
   disk — zero misses — and the output stays byte-identical. *)
let cache_disk_battery () =
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let options = opts Mode.Jt in
  let uncached = Runner.rewrite ~options ~jobs:1 bin in
  with_temp_dir (fun dir ->
      let c1 = Cache.create ~dir () in
      let cold = Runner.rewrite ~options ~jobs:1 ~cache:c1 bin in
      check_same ~what:"disk cold" uncached cold;
      Alcotest.(check bool) "entries on disk" true (Cache.entry_files c1 <> []);
      let c2 = Cache.create ~dir () in
      let warm = Runner.rewrite ~options ~jobs:2 ~cache:c2 bin in
      check_same ~what:"disk warm" uncached warm;
      let s = Cache.stats c2 in
      Alcotest.(check int) "disk warm: no misses" 0 s.Cache.c_misses;
      Alcotest.(check int) "disk warm: all hits" (Cache.stats c1).Cache.c_misses
        s.Cache.c_hits;
      Alcotest.(check bool) "disk warm: bytes reused" true
        (s.Cache.c_bytes_reused > 0))

(* Perturbing one function's bytes invalidates exactly that function's
   entries: each per-function stage misses once, everything else hits, and
   the rewrite of the perturbed binary is still byte-identical to its
   uncached rewrite. *)
let cache_invalidation () =
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  ignore (Runner.rewrite ~options ~jobs:1 ~cache:warm bin);
  match Runner.perturb_function (Runner.parse ~jobs:1 bin) with
  | None -> Alcotest.fail "no safely perturbable function in the spec binary"
  | Some (pbin, fname) ->
      let uncached = Runner.rewrite ~options ~jobs:1 pbin in
      let t = Trace.create () in
      let rw =
        Trace.with_current t (fun () ->
            Runner.rewrite ~options ~jobs:1 ~cache:(Cache.clone warm) pbin)
      in
      check_same ~what:(Printf.sprintf "perturbed %s" fname) uncached rw;
      let get name = Option.value ~default:0 (Trace.find_counter t name) in
      List.iter
        (fun stage ->
          Alcotest.(check int)
            (Printf.sprintf "one miss in %s" stage)
            1
            (get ("cache.miss:" ^ stage)))
        [
          "parse/pass1"; "parse/fptr"; "parse/finalize"; "parse/fptr2";
          "rewrite/relocate"; "rewrite/plan";
        ];
      (* Encode chunks under a cache are per-function, and the pinned
         layout re-places the (same-length) perturbed function back into
         its old slot, so every other function's chunk key is untouched:
         exactly the perturbed function's chunk re-encodes. *)
      Alcotest.(check int) "exactly one encode miss" 1
        (get "cache.miss:encode");
      (* Everything else hits: total activity matches the cold run. *)
      let cold = Cache.stats warm in
      Alcotest.(check int) "hits + misses = cold misses"
        cold.Cache.c_misses
        (get "cache.hit" + get "cache.miss")

(* A data-only edit — one byte flipped in a loaded data section,
   validated to leave the parsed analysis identical — costs no stage at
   all: no key digests data bytes, and the one stage that dereferences
   data words ([parse/finalize]) keys on exactly the table words it reads,
   which a validated edit never flips. The cached rewrite still matches
   the uncached rewrite of the edited binary byte-for-byte. *)
let cache_data_edit () =
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  ignore (Runner.rewrite ~options ~jobs:1 ~cache:warm bin);
  match Runner.perturb_data (Runner.parse ~jobs:1 bin) with
  | None -> Alcotest.fail "no safely perturbable data byte in the spec binary"
  | Some (pbin, sname) ->
      let uncached = Runner.rewrite ~options ~jobs:1 pbin in
      let t = Trace.create () in
      let rw =
        Trace.with_current t (fun () ->
            Runner.rewrite ~options ~jobs:1 ~cache:(Cache.clone warm) pbin)
      in
      check_same ~what:(Printf.sprintf "data edit in %s" sname) uncached rw;
      let get name = Option.value ~default:0 (Trace.find_counter t name) in
      List.iter
        (fun stage ->
          Alcotest.(check int)
            (Printf.sprintf "zero misses in %s" stage)
            0
            (get ("cache.miss:" ^ stage)))
        [
          "parse/pass1"; "parse/fptr"; "parse/finalize"; "parse/fptr2";
          "rewrite/relocate"; "rewrite/plan"; "encode";
        ];
      Alcotest.(check int) "zero misses overall" 0 (get "cache.miss")

(* The reference a warm rewrite of [pbin] must match: the same layout
   history with nothing reused. When an edit changes a function's
   relocated size, the pinned layout places it by the previous run's
   slots, so a plain uncached rewrite of [pbin] lays out differently by
   design. A cache that keeps only those slots (its entry files deleted)
   recomputes every stage under the same history instead. *)
let slots_only_reference ~options bin pbin =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir () in
      ignore (Runner.rewrite ~options ~jobs:1 ~cache:c bin);
      List.iter Sys.remove (Cache.entry_files c);
      let c = Cache.create ~dir () in
      let rw = Runner.rewrite ~options ~jobs:1 ~cache:c pbin in
      Alcotest.(check int) "reference reuses no entry" 0
        (Cache.stats c).Cache.c_hits;
      rw)

(* A one-bit edit inside a resolved jump table's entries — the one data
   edit that must reach [parse/finalize]. The flip sets the top bit of the
   table's last entry, moving that entry's target out of the function.
   The warm cached rewrite matches a rewrite that reuses nothing, and
   finalize misses exactly the functions whose table ranges cover the
   flipped byte. The pass-1 CFGs never decode table words, so the first
   function-pointer pass stays warm. One binary per ISA, since aarch64
   tables hold 1- and 2-byte entries. x86-64 and aarch64 place tables in
   .rodata, where pass 1 reads no table word either; ppc64le embeds every
   table in its function's .text, so there the owning function's pass-1
   slice changes too. *)
let cache_table_edit arch () =
  let module Jt = Icfg_analysis.Jump_table in
  let first_table (p : Parse.t) =
    let tables = List.concat_map (fun fa -> fa.Parse.fa_tables) p.Parse.funcs in
    match List.find_opt (fun (t : Jt.table) -> not t.Jt.t_in_code) tables with
    | Some _ as t -> t
    | None -> List.nth_opt tables 0
  in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let p = Runner.parse ~jobs:1 bin in
  match first_table p with
  | None -> Alcotest.fail "no resolved jump table in the spec binary"
  | Some t ->
      let extent (t : Jt.table) =
        (t.Jt.t_table, t.Jt.t_table + (t.Jt.t_count * Insn.width_bytes t.Jt.t_width))
      in
      let addr = snd (extent t) - 1 in
      let pbin = Binary.copy bin in
      Binary.write8 pbin addr (Binary.read8 bin addr lxor 0x80);
      let covering =
        List.length
          (List.filter
             (fun (fa : Parse.func_analysis) ->
               List.exists
                 (fun t ->
                   let lo, hi = extent t in
                   addr >= lo && addr < hi)
                 fa.Parse.fa_tables)
             p.Parse.funcs)
      in
      let options = opts Mode.Jt in
      let warm = Cache.create () in
      ignore (Runner.rewrite ~options ~jobs:1 ~cache:warm bin);
      let tr = Trace.create () in
      let rw =
        Trace.with_current tr (fun () ->
            Runner.rewrite ~options ~jobs:1 ~cache:(Cache.clone warm) pbin)
      in
      check_same
        ~what:(Printf.sprintf "table edit at 0x%x" addr)
        (slots_only_reference ~options bin pbin)
        rw;
      let get name = Option.value ~default:0 (Trace.find_counter tr name) in
      Alcotest.(check int) "parse/pass1 misses"
        (if t.Jt.t_in_code then covering else 0)
        (get "cache.miss:parse/pass1");
      Alcotest.(check int) "zero misses in parse/fptr" 0
        (get "cache.miss:parse/fptr");
      Alcotest.(check bool) "the flipped byte is some table's" true
        (covering > 0);
      Alcotest.(check int) "finalize misses exactly the covering functions"
        covering
        (get "cache.miss:parse/finalize")

(* Renaming one function symbol costs exactly that function's own
   entries: symbol names are digested namelessly in every cross-function
   key and relocated-block labels are address-namespaced, so each
   per-function stage misses once for the renamed function — and encode
   misses zero chunks, because the pinned layout keeps every address and
   no chunk's items or resolved labels change. *)
let cache_symbol_edit () =
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  ignore (Runner.rewrite ~options ~jobs:1 ~cache:warm bin);
  match Runner.perturb_symbol (Runner.parse ~jobs:1 bin) with
  | None -> Alcotest.fail "no renamable function symbol in the spec binary"
  | Some (pbin, fname) ->
      let uncached = Runner.rewrite ~options ~jobs:1 pbin in
      let t = Trace.create () in
      let rw =
        Trace.with_current t (fun () ->
            Runner.rewrite ~options ~jobs:1 ~cache:(Cache.clone warm) pbin)
      in
      check_same ~what:(Printf.sprintf "renamed %s" fname) uncached rw;
      let get name = Option.value ~default:0 (Trace.find_counter t name) in
      List.iter
        (fun stage ->
          Alcotest.(check int)
            (Printf.sprintf "one miss in %s" stage)
            1
            (get ("cache.miss:" ^ stage)))
        [
          "parse/pass1"; "parse/fptr"; "parse/finalize"; "parse/fptr2";
          "rewrite/relocate"; "rewrite/plan";
        ];
      Alcotest.(check int) "zero encode misses" 0 (get "cache.miss:encode")

(* The pinned incremental layout is jobs-independent: warm rewrites of a
   perturbed binary at any jobs count produce identical cache statistics
   and bit-identical output (the layout/pin decisions are serial; only
   encoding fans out). *)
let cache_pinning_jobs () =
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  ignore (Runner.rewrite ~options ~jobs:1 ~cache:warm bin);
  match Runner.perturb_function (Runner.parse ~jobs:1 bin) with
  | None -> Alcotest.fail "no safely perturbable function in the spec binary"
  | Some (pbin, _) -> (
      let uncached = Runner.rewrite ~options ~jobs:1 pbin in
      let stats =
        List.map
          (fun jobs ->
            let c = Cache.clone warm in
            let rw = Runner.rewrite ~options ~jobs ~cache:c pbin in
            check_same
              ~what:(Printf.sprintf "warm perturbed jobs=%d" jobs)
              uncached rw;
            Cache.stats c)
          [ 1; 2; 4 ]
      in
      match stats with
      | s0 :: rest ->
          List.iteri
            (fun i s ->
              Alcotest.(check bool)
                (Printf.sprintf "pinned stats jobs-independent (%d)" i)
                true (s = s0))
            rest
      | [] -> ())

(* ------------------------------------------------------------------ *)
(* Random programs: differential property                              *)
(* ------------------------------------------------------------------ *)

let random_spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 100_000 in
  let* n_compute = int_range 1 4 in
  let* n_switch = int_range 0 3 in
  let* n_dispatch = int_range 0 2 in
  let* exceptions = bool in
  return
    {
      Gen.seed;
      name = Printf.sprintf "par%d" seed;
      langs = [ Binary.C ];
      exceptions;
      n_compute;
      n_switch;
      n_dispatch;
      n_hard_spill = 0;
      n_frameless_tail = 0;
      n_data_table = 1;
      iters = 4;
      inner = 2;
      work = 3;
      cases = 4;
    }

let parallel_equals_serial =
  QCheck2.Test.make ~count:30
    ~name:"parallel: rewrite ~jobs:k = rewrite ~jobs:1"
    ~print:(fun (spec, (arch, mode, pie, jobs)) ->
      Printf.sprintf "seed=%d %s/%s%s jobs=%d" spec.Gen.seed (Arch.name arch)
        (Mode.name mode)
        (if pie then " pie" else "")
        jobs)
    QCheck2.Gen.(
      pair random_spec_gen
        (quad (oneofl Arch.all) (oneofl Mode.all) bool (oneofl [ 2; 4; 8 ])))
    (fun (spec, (arch, mode, pie, jobs)) ->
      let prog = Gen.build spec in
      let bin, _ = Icfg_codegen.Compile.compile ~pie arch prog in
      let options = opts mode in
      equal_rewrite
        (Runner.rewrite ~options ~jobs:1 bin)
        (Runner.rewrite ~options ~jobs bin))

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "spec battery x86_64" `Quick (spec_battery Arch.X86_64);
        Alcotest.test_case "spec battery aarch64" `Quick (spec_battery Arch.Aarch64);
        Alcotest.test_case "spec battery ppc64le" `Quick (spec_battery Arch.Ppc64le);
        Alcotest.test_case "option variants" `Quick variant_battery;
        Alcotest.test_case "parallel parse" `Quick parse_battery;
        Alcotest.test_case "sharded func-ptr analysis" `Quick funcptr_battery;
        Alcotest.test_case "sharded section encoding" `Quick asm_shard_battery;
        Alcotest.test_case "pool: shared growth + clamp" `Quick pool_shared_growth;
        Alcotest.test_case "pool: fail-fast abort" `Quick pool_fail_fast;
        Alcotest.test_case "pool: usable after failure" `Quick pool_partial_failure;
        Alcotest.test_case "pool: incomplete-map diagnostic" `Quick
          pool_incomplete_diag;
        Alcotest.test_case "go binaries" `Quick go_battery;
        Alcotest.test_case "cache: cached = uncached, jobs-independent" `Quick
          cache_battery;
        Alcotest.test_case "cache: disk tier round-trip" `Quick
          cache_disk_battery;
        Alcotest.test_case "cache: per-function invalidation" `Quick
          cache_invalidation;
        Alcotest.test_case "cache: data-only edit keeps text stages warm"
          `Quick cache_data_edit;
        Alcotest.test_case "cache: table-word edit x86_64" `Quick
          (cache_table_edit Arch.X86_64);
        Alcotest.test_case "cache: table-word edit aarch64" `Quick
          (cache_table_edit Arch.Aarch64);
        Alcotest.test_case "cache: table-word edit ppc64le" `Quick
          (cache_table_edit Arch.Ppc64le);
        Alcotest.test_case "cache: one-symbol edit is function-local" `Quick
          cache_symbol_edit;
        Alcotest.test_case "cache: pinned layout jobs-independent" `Quick
          cache_pinning_jobs;
        QCheck_alcotest.to_alcotest parallel_equals_serial;
      ] );
  ]
