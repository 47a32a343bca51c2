(* Layout battery: chunked section encoding and the pinned layout.

   Contracts under test: [Asm.encode_chunks] of any tiling of a layout
   equals [Asm.encode]; a rewrite through a layout-slot cache is
   byte-identical to an uncached one unless an edit changed a function's
   relocated size, and a warm rewrite re-solves exactly the segments an
   edit changed. *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Parse = Icfg_analysis.Parse
module Runner = Icfg_harness.Runner
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section

let check_same = Test_golden.check_same
let opts = Test_golden.opts

(* ------------------------------------------------------------------ *)
(* Chunked section encoding is byte-identical for any chunking         *)
(* ------------------------------------------------------------------ *)

module Asm = Icfg_codegen.Asm

(* Split a layout's items into [k] contiguous chunks (clamped to the item
   count), uneven when [k] does not divide it. Zero-size items (labels)
   make some chunks degenerate: empty address extents. *)
let tile (lay : Asm.layout) k =
  let items = Array.of_list lay.Asm.items in
  let n = Array.length items in
  let k = max 1 (min k n) in
  List.init k (fun c ->
      let i0 = c * n / k and i1 = (c + 1) * n / k in
      { Asm.c_items = Array.to_list (Array.sub items i0 (i1 - i0)) })

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
                Asm.encode_chunks arch ~pie ~toc:0 ~labels lay (tile lay chunks)
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
(* Layout slots: cached == uncached, pinned layouts after edits        *)
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

(* A rewrite through [cache] under a private trace, with the number of
   layout segments it pinned and moved. *)
let traced_rewrite ~options cache bin =
  let t = Trace.create () in
  let rw = Trace.with_current t (fun () -> Runner.rewrite ~options ~cache bin) in
  let get k = Option.value ~default:0 (Trace.find_counter t k) in
  (rw, get "layout.pinned", get "layout.moved")

let spec_head arch =
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

(* Rewrites through a cache are byte-identical to uncached ones for every
   input and mode, cold (a fresh cache) and warm (a clone of the cold
   run's cache). The warm run finds the cold run's slot and pins every
   segment the cold run placed. *)
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
          let uncached = Runner.rewrite ~options bin in
          let c = Cache.create () in
          let cold, _, placed = traced_rewrite ~options c bin in
          check_same ~what:(what "cold") uncached cold;
          let warm, pinned, moved = traced_rewrite ~options (Cache.clone c) bin in
          check_same ~what:(what "warm") uncached warm;
          Alcotest.(check (pair int int))
            (what "warm: every segment pinned")
            (placed, 0) (pinned, moved))
        Mode.all)
    (cache_inputs ())

(* The slot files: a second cache over the same directory (a fresh
   process in real life) reads the first run's layout from disk and pins
   every segment, and the output stays byte-identical. *)
let cache_disk_battery () =
  let bin = spec_head Arch.X86_64 in
  let options = opts Mode.Jt in
  let uncached = Runner.rewrite ~options bin in
  with_temp_dir (fun dir ->
      let cold, _, placed = traced_rewrite ~options (Cache.create ~dir ()) bin in
      check_same ~what:"disk cold" uncached cold;
      let c2 = Cache.create ~dir () in
      let warm, pinned, moved = traced_rewrite ~options c2 bin in
      check_same ~what:"disk warm" uncached warm;
      Alcotest.(check int) "disk warm: slot read from disk" 1
        (Cache.stats c2).Cache.c_hits;
      Alcotest.(check (pair int int)) "disk warm: every segment pinned"
        (placed, 0) (pinned, moved))

(* A warm rewrite of an edit that keeps every relocated size — [probe]
   picks it — is byte-identical to the uncached rewrite of the edited
   binary, and re-solves exactly [moved] segments: the ones whose
   relocated code the edit changed, each back into its own hole. *)
let cache_edit ?(arch = Arch.X86_64) ~probe ~moved:want () =
  let bin = spec_head arch in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  let _, _, placed = traced_rewrite ~options warm bin in
  match probe (Runner.parse bin) with
  | None -> Alcotest.fail "no edit site in the spec binary"
  | Some (pbin, site) ->
      let uncached = Runner.rewrite ~options pbin in
      let rw, pinned, moved = traced_rewrite ~options (Cache.clone warm) pbin in
      check_same ~what:(Printf.sprintf "edit at %s" site) uncached rw;
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d segment(s) re-solved" want)
        (placed - want, want) (pinned, moved)

(* A one-bit edit inside a resolved jump table's entries. The flip sets
   the top bit of the table's last entry, moving that entry's target out
   of the function, so the functions whose tables cover the byte analyse
   and relocate differently and may change size — the case where the
   pinned layout departs from an uncached rewrite by design. Every
   function the edit left unchanged keeps its relocated addresses,
   exactly the changed segments are re-solved, and the rewritten binary
   still behaves like the edited original under the Vm. One binary per
   ISA, since aarch64 tables hold 1- and 2-byte entries and ppc64le
   embeds every table in its function's .text. *)
let cache_table_edit arch () =
  let module Jt = Icfg_analysis.Jump_table in
  let module Cfg = Icfg_analysis.Cfg in
  let first_table (p : Parse.t) =
    let tables = List.concat_map (fun fa -> fa.Parse.fa_tables) p.Parse.funcs in
    match List.find_opt (fun (t : Jt.table) -> not t.Jt.t_in_code) tables with
    | Some _ as t -> t
    | None -> List.nth_opt tables 0
  in
  let bin = spec_head arch in
  let p = Runner.parse bin in
  match first_table p with
  | None -> Alcotest.fail "no resolved jump table in the spec binary"
  | Some t ->
      let extent (t : Jt.table) =
        (t.Jt.t_table, t.Jt.t_table + (t.Jt.t_count * Insn.width_bytes t.Jt.t_width))
      in
      let addr = snd (extent t) - 1 in
      let pbin = Binary.copy bin in
      Binary.write8 pbin addr (Binary.read8 bin addr lxor 0x80);
      let options = opts Mode.Jt in
      let warm = Cache.create () in
      let base = Runner.rewrite ~options ~cache:warm bin in
      let rw, _, moved = traced_rewrite ~options (Cache.clone warm) pbin in
      (* What relocation reads of a function: its blocks, tables and jump
         outcomes. *)
      let view (fa : Parse.func_analysis) =
        ( fa.Parse.fa_instrumentable,
          List.map
            (fun (b : Cfg.block) -> (b.Cfg.b_start, b.Cfg.b_insns))
            fa.Parse.fa_cfg.Cfg.blocks,
          fa.Parse.fa_tables,
          fa.Parse.fa_tail_jumps,
          fa.Parse.fa_jt_sites )
      in
      let pairs =
        List.combine p.Parse.funcs (Runner.parse pbin).Parse.funcs
      in
      let changed, unchanged =
        List.partition (fun (a, b) -> view a <> view b) pairs
      in
      Alcotest.(check bool) "the flipped byte is some table's" true
        (List.exists
           (fun ((fa : Parse.func_analysis), _) ->
             List.exists
               (fun t ->
                 let lo, hi = extent t in
                 lo <= addr && addr < hi)
               fa.Parse.fa_tables)
           pairs);
      List.iter
        (fun ((fa : Parse.func_analysis), _) ->
          List.iter
            (fun (b : Cfg.block) ->
              let a = b.Cfg.b_start in
              Alcotest.(check (option int))
                (Printf.sprintf "%s block 0x%x keeps its address"
                   fa.Parse.fa_sym.Icfg_obj.Symbol.name a)
                (base.Rewriter.rw_relocated_entry a)
                (rw.Rewriter.rw_relocated_entry a))
            fa.Parse.fa_cfg.Cfg.blocks)
        unchanged;
      (* A changed instrumented function re-solves its .instr segment and,
         when it still has tables to clone, its .jtnew segment. The
         .jtnew base follows the .instr extent, which this edit leaves in
         place. *)
      let jt_base (r : Rewriter.t) =
        Option.map
          (fun (s : Section.t) -> s.Section.vaddr)
          (Binary.section r.Rewriter.rw_binary ".jtnew")
      in
      Alcotest.(check (option int)) ".jtnew keeps its base" (jt_base base)
        (jt_base rw);
      let segments (_, (fa : Parse.func_analysis)) =
        if not fa.Parse.fa_instrumentable then 0
        else if fa.Parse.fa_tables = [] then 1
        else 2
      in
      Alcotest.(check int) "exactly the changed segments re-solved"
        (List.fold_left (fun n f -> n + segments f) 0 changed)
        moved;
      let orig = Runner.run_original pbin in
      let out = Runner.run_rewritten rw in
      Alcotest.(check (list int)) "Vm output matches the edited original"
        orig.Runner.r_output out.Runner.r_output

(* One cache across binaries and modes: every (binary, options) pair
   has a slot of its own, so no rewrite pins against another pair's
   layout. Each output equals its uncached rewrite, the first pass
   misses once per pair and the replay pass hits once per pair. *)
let cache_slot_keys () =
  let c = Cache.create () in
  let pairs =
    List.concat_map
      (fun arch ->
        let bin = spec_head arch in
        List.map (fun mode -> (bin, opts mode)) Mode.all)
      Arch.all
  in
  let n = List.length pairs in
  let pass () =
    List.iter
      (fun (bin, options) ->
        check_same
          ~what:
            (Printf.sprintf "%s %s" bin.Binary.name
               (Mode.name options.Rewriter.mode))
          (Runner.rewrite ~options bin)
          (Runner.rewrite ~options ~cache:c bin))
      pairs
  in
  pass ();
  let s1 = Cache.stats c in
  Alcotest.(check (pair int int)) "first pass: one miss per pair" (0, n)
    (s1.Cache.c_hits, s1.Cache.c_misses);
  pass ();
  let s2 = Cache.stats c in
  Alcotest.(check (pair int int)) "replay: one hit per pair" (n, n)
    (s2.Cache.c_hits, s2.Cache.c_misses)

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

(* On random programs, a rewrite through a cold cache and one through a
   clone of the warmed cache both equal the uncached rewrite. *)
let cached_equals_uncached =
  QCheck2.Test.make ~count:30
    ~name:"layout: random programs, cached rewrite = uncached"
    ~print:(fun (spec, (arch, mode, pie)) ->
      Printf.sprintf "seed=%d %s/%s%s" spec.Gen.seed (Arch.name arch)
        (Mode.name mode)
        (if pie then " pie" else ""))
    QCheck2.Gen.(
      pair random_spec_gen (triple (oneofl Arch.all) (oneofl Mode.all) bool))
    (fun (spec, (arch, mode, pie)) ->
      let prog = Gen.build spec in
      let bin, _ = Icfg_codegen.Compile.compile ~pie arch prog in
      let options = opts mode in
      let uncached = Runner.rewrite ~options bin in
      let cache = Cache.create () in
      let cold = Runner.rewrite ~options ~cache bin in
      let warm = Runner.rewrite ~options ~cache:(Cache.clone cache) bin in
      Test_golden.equal_rewrite uncached cold
      && Test_golden.equal_rewrite uncached warm)

let suite =
  [
    ( "layout",
      [
        Alcotest.test_case "encode_chunks of any tiling = encode" `Quick
          asm_shard_battery;
        Alcotest.test_case "cache: cached = uncached, warm run pins all" `Quick
          cache_battery;
        Alcotest.test_case "cache: slot files pin across instances" `Quick
          cache_disk_battery;
        Alcotest.test_case "cache: one-function edit re-solves one segment"
          `Quick
          (cache_edit ~probe:Runner.perturb_function ~moved:1);
        Alcotest.test_case "cache: data-only edit pins every segment" `Quick
          (cache_edit ~probe:Runner.perturb_data ~moved:0);
        Alcotest.test_case "cache: table-word edit x86_64" `Quick
          (cache_table_edit Arch.X86_64);
        Alcotest.test_case "cache: table-word edit aarch64" `Quick
          (cache_table_edit Arch.Aarch64);
        Alcotest.test_case "cache: table-word edit ppc64le" `Quick
          (cache_table_edit Arch.Ppc64le);
        Alcotest.test_case "cache: one-symbol edit pins every segment" `Quick
          (cache_edit ~probe:Runner.perturb_symbol ~moved:0);
        Alcotest.test_case "cache: one-function edit aarch64" `Quick
          (cache_edit ~arch:Arch.Aarch64 ~probe:Runner.perturb_function
             ~moved:1);
        Alcotest.test_case "cache: one-function edit ppc64le" `Quick
          (cache_edit ~arch:Arch.Ppc64le ~probe:Runner.perturb_function
             ~moved:1);
        Alcotest.test_case "cache: slots keyed per binary and options" `Quick
          cache_slot_keys;
        QCheck_alcotest.to_alcotest cached_equals_uncached;
      ] );
  ]
