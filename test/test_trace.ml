(* Observability battery for the tracing layer (lib/trace/trace.ml).

   Three contracts under test:

   1. Paper-claims monotonicity (Table 3): the modes form a chain of
      shrinking CFL sets — dir keeps every indirect target CFL, jt resolves
      jump tables out, func-ptr additionally relocates function pointers —
      so trampoline counts, trap-trampoline counts, and rewritten-run trap
      deliveries are monotonically non-increasing across dir -> jt ->
      func-ptr, measured through the new Trace counters.

   2. Graded failures (section 4.3): over-approximated jump-table bounds
      only waste space (extra trampolines, still correct under the strong
      test); under-approximation is caught as a real failure;
      SRBI-generation analyses only lower coverage.

   3. Observation-only: tracing must never perturb the rewrite (identical
      bytes with tracing on and off). *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Runner = Icfg_harness.Runner
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Failure_model = Icfg_analysis.Failure_model
module Vm = Icfg_runtime.Vm

let opts mode =
  { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

let counter t name = Option.value ~default:0 (Trace.find_counter t name)

(* The strong test under a fresh ambient trace: its result and the trace. *)
let strong ?fm options bin =
  let t = Trace.create () in
  let r = Trace.with_current t (fun () -> Runner.strong_test ?fm ~options bin) in
  (r, t)

let passed ((r : Runner.strong), _) = r.Runner.st_problems = []
let stats ((r : Runner.strong), _) = r.Runner.st_rewrite.Rewriter.rw_stats
let rcounter (_, t) name = counter t name

let first_bench arch =
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

(* ------------------------------------------------------------------ *)
(* Trace mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let trace_basics () =
  let t = Trace.create () in
  Alcotest.(check bool) "inactive before" false (Trace.active ());
  (* Probes outside [with_current] are no-ops, not errors. *)
  Trace.add "orphan" 5;
  Trace.span "orphan" (fun () -> ());
  let v =
    Trace.with_current t (fun () ->
        Alcotest.(check bool) "active inside" true (Trace.active ());
        Trace.span "outer" (fun () ->
            Trace.add "n" 2;
            Trace.span "inner" (fun () -> Trace.incr "n");
            Trace.span "inner" (fun () -> ()));
        41 + 1)
  in
  Alcotest.(check int) "result passthrough" 42 v;
  Alcotest.(check bool) "inactive after" false (Trace.active ());
  Alcotest.(check (list (pair string int)))
    "counters" [ ("n", 3) ] (Trace.counters t);
  Alcotest.(check (option int)) "find_counter" (Some 3) (Trace.find_counter t "n");
  Alcotest.(check (option int)) "missing counter" None
    (Trace.find_counter t "orphan");
  let rows = Trace.rows t in
  Alcotest.(check (list string))
    "row paths (tree order, merged)" [ "outer"; "outer/inner" ]
    (List.map (fun r -> r.Trace.r_path) rows);
  let inner = List.nth rows 1 and outer = List.hd rows in
  Alcotest.(check int) "two inner spans merged" 2 inner.Trace.r_count;
  Alcotest.(check bool) "non-negative times" true
    (inner.Trace.r_ns >= 0 && outer.Trace.r_ns >= inner.Trace.r_ns);
  let json = Trace.to_json t in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json schema tag" true (contains "\"icfg-trace/1\"");
  Alcotest.(check bool) "json counter" true (contains "\"n\": 3");
  Alcotest.(check bool) "json span tree" true (contains "\"name\": \"inner\"")

(* The exceptional path must still close the span and restore the ambient
   trace. *)
let trace_unwind () =
  let t = Trace.create () in
  (try
     Trace.with_current t (fun () ->
         Trace.span "will-raise" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "inactive after raise" false (Trace.active ());
  Alcotest.(check (list string))
    "raised span still recorded" [ "will-raise" ]
    (List.map (fun r -> r.Trace.r_path) (Trace.rows t))

(* ------------------------------------------------------------------ *)
(* Pipeline coverage: every step shows up as a span                    *)
(* ------------------------------------------------------------------ *)

let parse_spans = [
  "parse"; "parse/pass1"; "parse/known-data"; "parse/func-ptr";
  "parse/finalize"; "parse/func-ptr-2";
]

let pipeline_spans = parse_spans @ [
  "rewrite"; "rewrite/relocate";
  "rewrite/layout:instr"; "rewrite/layout:jtnew";
  "rewrite/encode:instr"; "rewrite/encode:jtnew";
  "rewrite/ra-map"; "rewrite/place:plan"; "rewrite/place:hops";
  "rewrite/emit";
]

let pipeline_coverage () =
  let bin = first_bench Arch.X86_64 in
  let t = Trace.create () in
  let rw =
    Trace.with_current t (fun () ->
        Runner.rewrite ~options:(opts Mode.Jt) bin)
  in
  let rows = Trace.rows t in
  let paths = List.map (fun r -> r.Trace.r_path) rows in
  List.iter
    (fun p -> Alcotest.(check bool) ("span " ^ p) true (List.mem p paths))
    pipeline_spans;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Trace.r_path ^ " sane") true
        (r.Trace.r_ns >= 0 && r.Trace.r_count >= 1))
    rows;
  (* Counters agree with the stats record the rewrite returned. *)
  let st = rw.Rewriter.rw_stats in
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) name want (counter t name))
    [
      ("rewrite/funcs-total", st.Rewriter.s_funcs_total);
      ("rewrite/funcs-instrumented", st.Rewriter.s_funcs_instrumented);
      ("rewrite/blocks", st.Rewriter.s_blocks);
      ("rewrite/cfl-blocks", st.Rewriter.s_cfl_blocks);
      ("rewrite/trampolines", st.Rewriter.s_trampolines);
      ("rewrite/trampolines:trap", st.Rewriter.s_trap_trampolines);
      ("rewrite/cloned-tables", st.Rewriter.s_cloned_tables);
      ("rewrite/size-growth", st.Rewriter.s_new_size - st.Rewriter.s_orig_size);
      ("parse/funcs", st.Rewriter.s_funcs_total);
    ];
  Alcotest.(check bool) "some trampoline bytes" true
    (counter t "rewrite/trampoline-bytes" > 0)

(* Every parse records into the ambient trace, whoever calls it — also
   the drivers and edit probes outside the comparative roster. *)
let every_parse_traced () =
  let module Baseline = Icfg_baselines.Baseline in
  let module Parse = Icfg_analysis.Parse in
  let bin = first_bench Arch.X86_64 in
  let p = Runner.parse bin in
  let only =
    [ (List.find (fun f -> f.Parse.fa_instrumentable) p.Parse.funcs)
        .Parse.fa_sym.Icfg_obj.Symbol.name ]
  in
  List.iter
    (fun (what, f) ->
      let t = Trace.create () in
      Trace.with_current t f;
      let paths = List.map (fun r -> r.Trace.r_path) (Trace.rows t) in
      List.iter
        (fun s ->
          Alcotest.(check bool) (what ^ ": span " ^ s) true (List.mem s paths))
        parse_spans;
      List.iter
        (fun c ->
          Alcotest.(check bool) (what ^ ": counter " ^ c) true
            (Trace.find_counter t c <> None))
        [
          "parse/instrumentable"; "parse/jump-tables"; "parse/tail-jumps";
          "parse/known-data-addrs"; "parse/fptr-sites"; "parse/pointer-targets";
        ];
      Alcotest.(check bool) (what ^ ": parse/funcs") true
        (counter t "parse/funcs" >= Parse.total_funcs p))
    [
      ("bolt_block_reorder", fun () -> ignore (Baseline.bolt_block_reorder bin));
      ( "ours_partial",
        fun () -> ignore (Baseline.ours_partial ~mode:Mode.Jt ~only bin) );
      ("perturb_data", fun () -> ignore (Runner.perturb_data p));
    ]

(* ------------------------------------------------------------------ *)
(* Satellite 1: mode monotonicity on generated workloads (QCheck)      *)
(* ------------------------------------------------------------------ *)

(* Workloads with at least one switch and one dispatch kernel so all three
   modes actually differ in what they leave CFL. *)
let mono_spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 100_000 in
  let* n_compute = int_range 1 3 in
  let* n_switch = int_range 1 3 in
  let* n_dispatch = int_range 1 2 in
  let* exceptions = bool in
  return
    {
      Gen.seed;
      name = Printf.sprintf "mono%d" seed;
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

let mode_chain = [ Mode.Dir; Mode.Jt; Mode.Func_ptr ]

let mode_monotonicity =
  QCheck2.Test.make ~count:10
    ~name:"trace: trampolines/traps non-increasing over dir -> jt -> func-ptr"
    ~print:(fun (spec, (arch, pie)) ->
      Printf.sprintf "seed=%d %s%s" spec.Gen.seed (Arch.name arch)
        (if pie then " pie" else ""))
    QCheck2.Gen.(pair mono_spec_gen (pair (oneofl Arch.all) bool))
    (fun (spec, (arch, pie)) ->
      let prog = Gen.build spec in
      let bin, _ = Icfg_codegen.Compile.compile ~pie arch prog in
      let reports = List.map (fun m -> strong (opts m) bin) mode_chain in
      List.for_all passed reports
      &&
      let non_increasing name =
        let vals = List.map (fun r -> rcounter r name) reports in
        match vals with
        | [ dir; jt; fp ] -> dir >= jt && jt >= fp
        | _ -> false
      in
      non_increasing "rewrite/trampolines"
      && non_increasing "rewrite/trampolines:trap"
      && non_increasing "vm/rewritten/traps")

(* ------------------------------------------------------------------ *)
(* Satellite 2: graded failures under the strong test (section 4.3)    *)
(* ------------------------------------------------------------------ *)

let graded_spec =
  { Gen.default_spec with Gen.seed = 42; name = "graded"; n_switch = 3; iters = 40 }

let graded_bounds () =
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build graded_spec) in
  let over_fm =
    {
      (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 8))
      with
      Failure_model.extend_to_known_data = false;
    }
  in
  (* Over-approximated bounds (8 phantom entries per table) only waste
     space, never correctness. In dir mode the phantom targets are already
     CFL so nothing even changes; in jt mode the cloned tables carry the
     phantom entries, so the new-table bytes and total size growth go up
     while the strong test still passes. *)
  let base_dir = strong ~fm:Failure_model.ours (opts Mode.Dir) bin in
  Alcotest.(check bool) "exact bounds: strong test passes" true (passed base_dir);
  let over_dir = strong ~fm:over_fm (opts Mode.Dir) bin in
  Alcotest.(check bool) "over-approx dir: still correct" true (passed over_dir);
  Alcotest.(check bool) "over-approx dir: never fewer trampolines" true
    ((stats over_dir).Rewriter.s_trampolines
    >= (stats base_dir).Rewriter.s_trampolines);
  let base_jt = strong ~fm:Failure_model.ours (opts Mode.Jt) bin in
  let over_jt = strong ~fm:over_fm (opts Mode.Jt) bin in
  Alcotest.(check bool) "exact bounds jt: ok" true (passed base_jt);
  Alcotest.(check bool) "over-approx jt: still correct" true (passed over_jt);
  Alcotest.(check bool)
    (Printf.sprintf "over-approx jt: bigger cloned tables (%d > %d)"
       (rcounter over_jt "rewrite/jtnew-bytes")
       (rcounter base_jt "rewrite/jtnew-bytes"))
    true
    (rcounter over_jt "rewrite/jtnew-bytes"
    > rcounter base_jt "rewrite/jtnew-bytes");
  Alcotest.(check bool) "over-approx jt: more size growth" true
    (rcounter over_jt "rewrite/size-growth"
    > rcounter base_jt "rewrite/size-growth");
  (* Under-approximated bounds miss real targets; with the original bytes
     overwritten the strong test catches this as a real failure. *)
  let under_fm =
    Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2)
  in
  let under, _ = strong ~fm:under_fm (opts Mode.Dir) bin in
  Alcotest.(check bool) "under-approx: caught" true
    (under.Runner.st_problems <> [])

let graded_srbi () =
  (* One switch keeps its table base spilled to the stack; SRBI's analyses
     (no spill tracking) cannot bound it, so that function is skipped —
     coverage drops but the strong test still passes. *)
  let spec = { graded_spec with Gen.name = "graded-srbi"; n_hard_spill = 1 } in
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build spec) in
  let options = opts Mode.Dir in
  let base = strong ~fm:Failure_model.ours options bin in
  let srbi = strong ~fm:Failure_model.srbi options bin in
  Alcotest.(check bool) "ours: ok" true (passed base);
  Alcotest.(check bool) "srbi: still correct" true (passed srbi);
  let base = stats base and srbi = stats srbi in
  Alcotest.(check int) "same function population"
    base.Rewriter.s_funcs_total srbi.Rewriter.s_funcs_total;
  Alcotest.(check bool)
    (Printf.sprintf "srbi covers fewer functions (%d < %d)"
       srbi.Rewriter.s_funcs_instrumented base.Rewriter.s_funcs_instrumented)
    true
    (srbi.Rewriter.s_funcs_instrumented < base.Rewriter.s_funcs_instrumented);
  Alcotest.(check bool) "ours covers the spilled-base switch" true
    (base.Rewriter.s_funcs_instrumented = base.Rewriter.s_funcs_total)

(* ------------------------------------------------------------------ *)
(* Satellite 3: tracing is observation-only                            *)
(* ------------------------------------------------------------------ *)

let section_image (s : Section.t) =
  (s.Section.name, s.Section.vaddr, Bytes.to_string s.Section.data,
   Section.size s)

let sections (rw : Rewriter.t) =
  List.map section_image rw.Rewriter.rw_binary.Binary.sections

let observation_only () =
  let bin = first_bench Arch.X86_64 in
  let options = opts Mode.Jt in
  let plain = Runner.rewrite ~options bin in
  let t = Trace.create () in
  let traced = Trace.with_current t (fun () -> Runner.rewrite ~options bin) in
  Alcotest.(check bool) "bytes identical with tracing" true
    (sections plain = sections traced
    && plain.Rewriter.rw_stats = traced.Rewriter.rw_stats)

(* A parse and rewrite force no minor collection, traced or not. The
   runtime empties the minor heap before it builds an array of more than
   256 elements whose initial element is a young block ([Array.make],
   [of_list], [init], [map], ...), which promotes the op's whole live
   young heap. With a 4M-word minor heap, more than any op here allocates
   (under 0.9M words), every collection during an op is such a forced
   one. The cells: every spec binary on every ISA in every mode, and the
   first 21 seed-7 corpus entries in each of their modes. *)
let no_forced_minor_gc () =
  let module Spec_suite = Icfg_workloads.Spec_suite in
  let module Corpus = Icfg_workloads.Corpus in
  let cells =
    List.concat_map
      (fun arch ->
        List.concat_map
          (fun (b : Spec_suite.bench) ->
            let bin, _ = Spec_suite.compile arch b in
            List.map
              (fun mode ->
                ( Printf.sprintf "spec/%s/%s/%s" (Arch.name arch)
                    b.Spec_suite.bench_name (Mode.name mode),
                  bin,
                  mode ))
              Mode.all)
          (Spec_suite.benchmarks arch))
      Arch.all
    @ List.concat_map
        (fun (e : Corpus.entry) ->
          let bin = Corpus.build e in
          List.filter_map
            (fun mode ->
              if mode = Mode.Func_ptr && e.Corpus.e_shape = Corpus.Go_vtab then
                None
              else
                Some
                  ( Printf.sprintf "corpus/%d/%s/%s" e.Corpus.e_id
                      (Corpus.shape_name e.Corpus.e_shape)
                      (Mode.name mode),
                    bin,
                    mode ))
            Mode.all)
        (Corpus.generate ~seed:7 ~count:21)
  in
  let op traced bin mode () =
    let go () =
      Rewriter.rewrite
        ~options:{ Rewriter.default_options with Rewriter.mode }
        (Icfg_analysis.Parse.parse bin)
    in
    ignore
      (Sys.opaque_identity
         (if traced then Trace.with_current (Trace.create ()) go else go ()))
  in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 4 lsl 20 };
  let forced =
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () ->
        List.concat_map
          (fun (name, bin, mode) ->
            List.filter_map
              (fun traced ->
                Gc.full_major ();
                let c0 = (Gc.quick_stat ()).Gc.minor_collections
                and w0 = Gc.minor_words () in
                op traced bin mode ();
                let c = (Gc.quick_stat ()).Gc.minor_collections - c0
                and w = Gc.minor_words () -. w0 in
                if c = 0 then None
                else
                  Some
                    (Printf.sprintf "%s%s: %d in %.0f words" name
                       (if traced then " (traced)" else "")
                       c w))
              [ false; true ])
          cells)
  in
  Alcotest.(check (list string)) "forced minor collections" [] forced

(* ------------------------------------------------------------------ *)
(* VM runtime counters: buckets partition cycles; RA translations      *)
(* ------------------------------------------------------------------ *)

let vm_buckets () =
  let r = Runner.original_vm (first_bench Arch.X86_64) in
  Alcotest.(check bool) "halted" true (r.Vm.outcome = Vm.Halted);
  let sum = List.fold_left (fun acc (_, c) -> acc + c) 0 r.Vm.cycle_buckets in
  Alcotest.(check int) "buckets partition cycles" r.Vm.cycles sum;
  Alcotest.(check (list string))
    "bucket order" (Array.to_list Vm.bucket_names)
    (List.map fst r.Vm.cycle_buckets);
  Alcotest.(check bool) "icache modelled" true
    (r.Vm.icache_accesses > 0 && r.Vm.icache_misses <= r.Vm.icache_accesses);
  Alcotest.(check int) "icache bucket = misses * miss cost"
    (r.Vm.icache_misses * 25)
    (List.assoc "icache" r.Vm.cycle_buckets)

let vm_ra_translations () =
  (* An exception-throwing workload rewritten in jt mode: unwinding the
     rewritten binary goes through the RA-translation hook, and the new
     counters must see it. *)
  let spec =
    {
      Gen.default_spec with
      Gen.seed = 9;
      name = "vmtrace";
      exceptions = true;
      n_switch = 1;
      iters = 6;
    }
  in
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build spec) in
  let r = strong (opts Mode.Jt) bin in
  let rewritten = (fst r).Runner.st_rewritten in
  Alcotest.(check bool) "strong test ok" true (passed r);
  Alcotest.(check int) "trap counter mirrors report"
    rewritten.Runner.r_traps
    (rcounter r "vm/rewritten/traps");
  Alcotest.(check int) "cycle counter mirrors report"
    rewritten.Runner.r_cycles
    (rcounter r "vm/rewritten/cycles");
  Alcotest.(check bool) "unwinding happened" true
    (rcounter r "vm/rewritten/unwind-steps" > 0);
  Alcotest.(check bool) "RA translations counted" true
    (rcounter r "vm/rewritten/ra-translations" > 0);
  Alcotest.(check int) "original run needs no translation" 0
    (rcounter r "vm/original/ra-translations")

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "trace mechanics" `Quick trace_basics;
        Alcotest.test_case "trace unwind safety" `Quick trace_unwind;
        Alcotest.test_case "pipeline span coverage" `Quick pipeline_coverage;
        Alcotest.test_case "every parse is traced" `Quick every_parse_traced;
        Alcotest.test_case "graded failures: table bounds" `Quick graded_bounds;
        Alcotest.test_case "graded failures: srbi coverage" `Quick graded_srbi;
        Alcotest.test_case "tracing is observation-only" `Quick observation_only;
        Alcotest.test_case "no forced minor collection" `Quick
          no_forced_minor_gc;
        Alcotest.test_case "vm cycle buckets" `Quick vm_buckets;
        Alcotest.test_case "vm ra translations" `Quick vm_ra_translations;
        QCheck_alcotest.to_alcotest mode_monotonicity;
      ] );
  ]
