open Icfg_isa
module Binary = Icfg_obj.Binary
module Parse = Icfg_analysis.Parse
module Failure_model = Icfg_analysis.Failure_model
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode
module Baseline = Icfg_baselines.Baseline
module Capabilities = Icfg_baselines.Capabilities
module Spec_suite = Icfg_workloads.Spec_suite
module Apps = Icfg_workloads.Apps
module Vm = Icfg_runtime.Vm
module Stats = Icfg_trace.Stats

let buf_out f =
  let b = Buffer.create 4096 in
  f b;
  Buffer.contents b

let line b fmt = Format.kasprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let rows =
    List.map
      (fun (r : Capabilities.row) ->
        [
          r.Capabilities.approach;
          Capabilities.rewrites_name r.Capabilities.rewrites;
          Capabilities.reloc_name r.Capabilities.reloc_use;
          Capabilities.unmodified_name r.Capabilities.unmodified;
          Capabilities.unwinding_name r.Capabilities.unwinding;
        ])
      Capabilities.table1
  in
  "== Table 1: Comparison of binary rewriting approaches ==\n"
  ^ Table.render
      ~header:
        [
          "Approach"; "Types to rewrite"; "Use of relocation";
          "Unmodified control flow"; "Stack unwinding";
        ]
      rows

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let human_range n =
  if n >= 1 lsl 30 then Printf.sprintf "%dGB" (n / (1 lsl 30))
  else if n >= 1 lsl 20 then Printf.sprintf "%dMB" (n / (1 lsl 20))
  else Printf.sprintf "%dB" n

let table2 () =
  let rows =
    List.map
      (fun (r : Trampoline.row) ->
        [
          Arch.name r.Trampoline.arch;
          r.Trampoline.instructions;
          human_range r.Trampoline.range;
          r.Trampoline.length_desc;
        ])
      Trampoline.catalogue
  in
  "== Table 2: Trampoline instruction sequences ==\n"
  ^ Table.render ~header:[ "Arch."; "Instructions"; "Range"; "Len." ] rows

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let quickstart_prog =
  let spec = { Icfg_workloads.Gen.default_spec with Icfg_workloads.Gen.name = "quickstart"; iters = 20 } in
  Icfg_workloads.Gen.build spec

let figure1 () =
  buf_out (fun b ->
      line b "== Figure 1: layout of a rewritten binary (x86-64, jt mode) ==";
      let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 quickstart_prog in
      let parse = Parse.parse bin in
      let rw = Rewriter.rewrite parse in
      line b "-- input binary --";
      line b "%s" (Format.asprintf "%a" Binary.pp bin);
      line b "-- rewritten binary --";
      line b "%s" (Format.asprintf "%a" Binary.pp rw.Rewriter.rw_binary);
      line b "-- rewrite stats --";
      line b "%s" (Format.asprintf "%a" Rewriter.pp_stats rw.Rewriter.rw_stats))

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

type figure2_row = {
  f2_failure : string;
  f2_coverage_pct : float;
  f2_trampolines : int;
  f2_correct : bool;
}

let figure2_case arch label fm prog =
  let bin, _ = Icfg_codegen.Compile.compile arch prog in
  let parse = Parse.parse ~fm bin in
  (* dir mode: jump-table target blocks are CFL, so phantom
     (over-approximated) targets surface as extra trampolines, and missing
     (under-approximated) targets surface as missing trampolines. *)
  let rw =
    Rewriter.rewrite
      ~options:{ Rewriter.default_options with Rewriter.mode = Mode.Dir }
      parse
  in
  let orig = Runner.run_original bin in
  let v =
    Runner.evaluate ~orig ~coverage:(Parse.coverage parse)
      ~orig_size:(Binary.loaded_size bin) (Baseline.Rewritten rw)
  in
  {
    f2_failure = label;
    f2_coverage_pct = v.Runner.v_coverage_pct;
    f2_trampolines = rw.Rewriter.rw_stats.Rewriter.s_trampolines;
    f2_correct = v.Runner.v_pass;
  }

let figure2_data arch =
  let mk ?(data_table = 0) () =
    Icfg_workloads.Gen.build
      {
        Icfg_workloads.Gen.default_spec with
        Icfg_workloads.Gen.seed = 42;
        name = "figure2";
        n_switch = 3;
        n_data_table = data_table;
        iters = 40;
      }
  in
  [
    figure2_case arch "none (accurate CFG)" Failure_model.ours (mk ());
    figure2_case arch "analysis failure (graceful)" Failure_model.ours
      (mk ~data_table:1 ());
    figure2_case arch "over-approximation (+8 entries)"
      {
        (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 8)) with
        Failure_model.extend_to_known_data = false;
      }
      (mk ());
    figure2_case arch "under-approximation (-2 entries)"
      (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2))
      (mk ());
  ]

let figure2 () =
  buf_out (fun b ->
      line b "== Figure 2: failure modes of binary analysis vs. rewriting ==";
      List.iter
        (fun arch ->
          line b "-- %s --" (Arch.name arch);
          let rows =
            List.map
              (fun r ->
                [
                  r.f2_failure;
                  Printf.sprintf "%.2f%%" r.f2_coverage_pct;
                  string_of_int r.f2_trampolines;
                  (if r.f2_correct then "correct" else "WRONG INSTRUMENTATION");
                ])
              (figure2_data arch)
          in
          Buffer.add_string b
            (Table.render
               ~header:[ "CFG failure"; "Coverage"; "Trampolines"; "Rewriting" ]
               rows))
        [ Arch.X86_64 ])

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

type t3_row = {
  t3_approach : string;
  t3_time_max : float;
  t3_time_mean : float;
  t3_cov_min : float;
  t3_cov_mean : float;
  t3_size_max : float;
  t3_size_mean : float;
  t3_pass : int;
  t3_total : int;
}

let aggregate name verdicts =
  let passing = List.filter (fun v -> v.Runner.v_pass) verdicts in
  let times = List.map (fun v -> v.Runner.v_overhead_pct) passing in
  let covs = List.map (fun v -> v.Runner.v_coverage_pct) verdicts in
  let sizes =
    List.filter_map
      (fun v -> if v.Runner.v_size_pct <> 0. then Some v.Runner.v_size_pct else None)
      verdicts
  in
  {
    t3_approach = name;
    t3_time_max = Stats.max_f times;
    t3_time_mean = Stats.mean times;
    t3_cov_min = Stats.min_f covs;
    t3_cov_mean = Stats.mean covs;
    t3_size_max = Stats.max_f sizes;
    t3_size_mean = Stats.mean sizes;
    t3_pass = List.length passing;
    t3_total = List.length verdicts;
  }

(* One benchmark's SRBI, dir, jt and func-ptr cells and its coverage
   under this paper's failure model: [table3_data] aggregates them,
   [table3_detail] prints them. *)
type t3_cells = {
  c_cov : float;
  c_srbi : Runner.verdict;
  c_dir : Runner.verdict;
  c_jt : Runner.verdict;
  c_fp : Runner.verdict;
}

let t3_cells arch bench =
  let bin, _ = Spec_suite.compile arch bench in
  let orig = Runner.run_original bin in
  let orig_size = Binary.loaded_size bin in
  let cov fm = Parse.coverage (Parse.parse ~fm bin) in
  let cov_srbi = cov Failure_model.srbi in
  let c_cov = cov Failure_model.ours in
  let eval coverage outcome =
    Runner.evaluate ~orig ~coverage ~orig_size outcome
  in
  let c_srbi = eval cov_srbi (Baseline.srbi bin) in
  let c_dir = eval c_cov (Baseline.ours ~mode:Mode.Dir bin) in
  let c_jt = eval c_cov (Baseline.ours ~mode:Mode.Jt bin) in
  let c_fp = eval c_cov (Baseline.ours ~mode:Mode.Func_ptr bin) in
  { c_cov; c_srbi; c_dir; c_jt; c_fp }

(* Egalito's cell: IR lowering needs the PIE build (x86-64 only). *)
let t3_egalito bench =
  let bin_pie, _ = Spec_suite.compile ~pie:true Arch.X86_64 bench in
  Runner.evaluate
    ~orig:(Runner.run_original bin_pie)
    ~coverage:(Parse.coverage (Parse.parse bin_pie))
    ~orig_size:(Binary.loaded_size bin_pie)
    (Baseline.ir_lowering bin_pie)

let table3_data arch =
  let benches = Spec_suite.benchmarks arch in
  let cells = List.map (t3_cells arch) benches in
  let col f = List.map f cells in
  let rows =
    [
      aggregate "SRBI" (col (fun c -> c.c_srbi));
      aggregate "dir" (col (fun c -> c.c_dir));
      aggregate "jt" (col (fun c -> c.c_jt));
      aggregate "func-ptr" (col (fun c -> c.c_fp));
    ]
  in
  if arch = Arch.X86_64 then
    rows @ [ aggregate "Egalito" (List.map t3_egalito benches) ]
  else rows

let render_t3 rows =
  Table.render
    ~header:
      [
        ""; "Time max"; "Time mean"; "Cov min"; "Cov mean"; "Size max";
        "Size mean"; "Pass";
      ]
    (List.map
       (fun r ->
         [
           r.t3_approach;
           Stats.pct r.t3_time_max;
           Stats.pct r.t3_time_mean;
           Printf.sprintf "%.2f%%" r.t3_cov_min;
           Printf.sprintf "%.2f%%" r.t3_cov_mean;
           Stats.pct r.t3_size_max;
           Stats.pct r.t3_size_mean;
           Printf.sprintf "%d/%d" r.t3_pass r.t3_total;
         ])
       rows)

(* Per-benchmark detail rows, as the paper's artifact scripts print. *)
let table3_detail ?(arch = Arch.X86_64) () =
  buf_out (fun b ->
      line b "== Table 3 detail: per-benchmark results (%s) ==" (Arch.name arch);
      let overhead v =
        if v.Runner.v_pass then Stats.pct v.Runner.v_overhead_pct else "FAIL"
      in
      let rows =
        List.map
          (fun bench ->
            let c = t3_cells arch bench in
            [
              bench.Spec_suite.bench_name;
              String.concat "/"
                (List.map Binary.lang_name bench.Spec_suite.langs);
              overhead c.c_srbi;
              overhead c.c_dir;
              overhead c.c_jt;
              overhead c.c_fp;
              Printf.sprintf "%.1f%%" (100. *. c.c_cov);
            ])
          (Spec_suite.benchmarks arch)
      in
      Buffer.add_string b
        (Table.render
           ~header:
             [ "benchmark"; "langs"; "SRBI"; "dir"; "jt"; "func-ptr"; "cov" ]
           rows))

let table3 ?(arches = Arch.all) () =
  buf_out (fun b ->
      line b "== Table 3: block-level empty instrumentation (SPEC-like suite) ==";
      List.iter
        (fun arch ->
          line b "-- %s --" (Arch.name arch);
          Buffer.add_string b (render_t3 (table3_data arch)))
        arches)

(* ------------------------------------------------------------------ *)
(* Section 8.2: Firefox's libxul and Docker                            *)
(* ------------------------------------------------------------------ *)

let firefox () =
  buf_out (fun b ->
      line b "== Firefox libxul.so analogue (x86-64, PIE) ==";
      let arch = Arch.X86_64 in
      let bin, _ = Apps.libxul arch in
      let orig = Runner.run_original bin in
      let orig_size = Binary.loaded_size bin in
      let parse = Parse.parse bin in
      let coverage = Parse.coverage parse in
      line b "functions: %d, coverage: %.2f%%" (Parse.total_funcs parse)
        (100. *. coverage);
      List.iter
        (fun mode ->
          let v =
            Runner.evaluate ~orig ~coverage ~orig_size
              (Baseline.ours ~mode bin)
          in
          (* Latency-style metric: overhead; score-style metric (JetStream):
             score reduction = overhead/(1+overhead). *)
          let score_red =
            100. *. (v.Runner.v_overhead_pct /. (100. +. v.Runner.v_overhead_pct))
          in
          if v.Runner.v_pass then
            line b
              "%-8s: latency overhead %s, score reduction %.2f%%, size %s, \
               traps %d"
              (Mode.name mode)
              (Stats.pct v.Runner.v_overhead_pct)
              score_red
              (Stats.pct v.Runner.v_size_pct)
              v.Runner.v_traps
          else
            line b "%-8s: FAILED (%s)" (Mode.name mode) v.Runner.v_reason)
        [ Mode.Dir; Mode.Jt; Mode.Func_ptr ];
      (match Baseline.ir_lowering bin with
      | Baseline.Refused r -> line b "Egalito : REFUSED (%s)" r
      | Baseline.Rewritten _ -> line b "Egalito : unexpectedly succeeded"))

let docker () =
  buf_out (fun b ->
      line b "== Docker analogue (Go, x86-64, PIE) ==";
      let arch = Arch.X86_64 in
      let bin, _ = Apps.docker arch in
      let orig = Runner.run_original bin in
      let orig_size = Binary.loaded_size bin in
      let parse = Parse.parse bin in
      let coverage = Parse.coverage parse in
      line b "functions: %d, coverage: %.2f%%" (Parse.total_funcs parse)
        (100. *. coverage);
      let results =
        List.map
          (fun mode ->
            let out = Baseline.ours ~mode bin in
            let cloned =
              match out with
              | Baseline.Rewritten rw ->
                  rw.Rewriter.rw_stats.Rewriter.s_cloned_tables
              | Baseline.Refused _ -> 0
            in
            (mode, Runner.evaluate ~orig ~coverage ~orig_size out, cloned))
          [ Mode.Dir; Mode.Jt; Mode.Func_ptr ]
      in
      List.iter
        (fun (mode, v, cloned) ->
          if v.Runner.v_pass then
            line b "%-8s: overhead %s, size %s, cloned tables %d"
              (Mode.name mode)
              (Stats.pct v.Runner.v_overhead_pct)
              (Stats.pct v.Runner.v_size_pct)
              cloned
          else line b "%-8s: FAILED (%s)" (Mode.name mode) v.Runner.v_reason)
        results;
      line b
        "(Go's compiler emits no jump tables, so dir and jt coincide; \
         func-ptr fails on the Go function tables.)";
      match Baseline.ir_lowering bin with
      | Baseline.Refused r -> line b "Egalito : REFUSED (%s)" r
      | Baseline.Rewritten _ -> line b "Egalito : unexpectedly succeeded")

(* ------------------------------------------------------------------ *)
(* Section 8.3: BOLT                                                   *)
(* ------------------------------------------------------------------ *)

type bolt_result = { bolt_ok : int; bolt_total : int; ours_ok : int }

let bolt_data arch which =
  let benches = Spec_suite.benchmarks arch in
  let count f = List.length (List.filter f benches) in
  let run_ok bench reorder =
    let bin, _ = Spec_suite.compile arch bench in
    let orig = Runner.run_original bin in
    let v =
      Runner.evaluate ~orig ~coverage:1.0 ~orig_size:(Binary.loaded_size bin)
        (reorder bin)
    in
    v.Runner.v_pass
  in
  match which with
  | `Funcs ->
      {
        bolt_ok = count (fun bench -> run_ok bench Baseline.bolt_function_reorder);
        bolt_total = List.length benches;
        ours_ok =
          count (fun bench ->
              run_ok bench (fun bin ->
                  let parse = Parse.parse bin in
                  Baseline.Rewritten
                    (Rewriter.rewrite
                       ~options:
                         {
                           Rewriter.default_options with
                           Rewriter.order = `Reverse_funcs;
                         }
                       parse)));
      }
  | `Blocks ->
      {
        bolt_ok = count (fun bench -> run_ok bench Baseline.bolt_block_reorder);
        bolt_total = List.length benches;
        ours_ok =
          count (fun bench ->
              run_ok bench (fun bin ->
                  let parse = Parse.parse bin in
                  Baseline.Rewritten
                    (Rewriter.rewrite
                       ~options:
                         {
                           Rewriter.default_options with
                           Rewriter.order = `Reverse_blocks;
                         }
                       parse)));
      }

let bolt () =
  buf_out (fun b ->
      line b "== Section 8.3: comparison with BOLT (x86-64) ==";
      let f = bolt_data Arch.X86_64 `Funcs in
      line b
        "function reversal : BOLT %d/%d (refuses without link-time \
         relocations, even for PIE); ours %d/%d"
        f.bolt_ok f.bolt_total f.ours_ok f.bolt_total;
      (* With a -Wl,-q style build BOLT works. *)
      let bench = List.hd (Spec_suite.benchmarks Arch.X86_64) in
      let bin_q, _ =
        Icfg_codegen.Compile.compile ~link_relocs:true Arch.X86_64
          bench.Spec_suite.prog
      in
      (match Baseline.bolt_function_reorder bin_q with
      | Baseline.Rewritten _ ->
          line b "with -Wl,-q link-time relocations retained: BOLT succeeds"
      | Baseline.Refused r -> line b "with -Wl,-q: still refused (%s)" r);
      let bl = bolt_data Arch.X86_64 `Blocks in
      line b
        "block reversal    : BOLT %d/%d (%d corrupted binaries — the bad \
         .interp failure); ours %d/%d"
        bl.bolt_ok bl.bolt_total (bl.bolt_total - bl.bolt_ok) bl.ours_ok
        bl.bolt_total)

(* ------------------------------------------------------------------ *)
(* Section 9: Diogenes                                                 *)
(* ------------------------------------------------------------------ *)

(* A refusal from either rewriter is a data-shape outcome, not a harness
   crash: report it as [Error reason] so the experiment table can print a
   skipped cell instead of [failwith] killing the whole bench run. *)
let diogenes_data arch =
  let bin, _ = Apps.libcuda arch in
  let subset = Apps.libcuda_api_subset bin in
  let run label outcome =
    match outcome with
    | Baseline.Rewritten rw -> Ok (Runner.run_rewritten rw)
    | Baseline.Refused r -> Error (label ^ ": " ^ r)
  in
  match
    ( run "dyninst" (Baseline.legacy_dyninst ~only:subset bin),
      run "ours" (Baseline.ours_partial ~mode:Mode.Jt ~only:subset bin) )
  with
  | Ok legacy, Ok ours ->
      Ok
        (float_of_int legacy.Runner.r_cycles
        /. float_of_int (max 1 ours.Runner.r_cycles))
  | Error r, _ | _, Error r -> Error r

let diogenes () =
  buf_out (fun b ->
      line b "== Section 9: Diogenes case study (libcuda analogue) ==";
      List.iter
        (fun arch ->
          let bin, _ = Apps.libcuda arch in
          let subset = Apps.libcuda_api_subset bin in
          let parse = Parse.parse bin in
          line b
            "%s: instrumenting %d of %d functions (partial instrumentation)"
            (Arch.name arch) (List.length subset) (Parse.total_funcs parse);
          let describe label outcome =
            match outcome with
            | Baseline.Rewritten rw ->
                let r = Runner.run_rewritten rw in
                line b "  %-22s cycles %10d, traps %6d (%s)" label
                  r.Runner.r_cycles r.Runner.r_traps
                  (match r.Runner.r_outcome with
                  | Vm.Halted -> "ok"
                  | Vm.Crashed m -> "CRASH: " ^ m)
            | Baseline.Refused r -> line b "  %-22s REFUSED (%s)" label r
          in
          describe "Dyninst mainstream:" (Baseline.legacy_dyninst ~only:subset bin);
          describe "our approach:" (Baseline.ours_partial ~mode:Mode.Jt ~only:subset bin);
          (match diogenes_data arch with
          | Ok s -> line b "  speedup: %.1fx" s
          | Error r -> line b "  speedup: skipped (refused: %s)" r);
          match Baseline.ir_lowering bin with
          | Baseline.Refused r -> line b "  Egalito: REFUSED (%s)" r
          | Baseline.Rewritten _ -> line b "  Egalito: unexpectedly succeeded")
        [ Arch.X86_64; Arch.Ppc64le; Arch.Aarch64 ])

(* ------------------------------------------------------------------ *)
(* Ablations: the placement and unwinding design choices               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  buf_out (fun b ->
      line b "== Ablations: trampoline placement and unwinding choices ==";
      (* Placement ablation on ppc64le with a large working set: the
         relocated area is beyond the 32 MiB short-branch range, so
         placement quality decides between long trampolines, hops and
         traps. *)
      let arch = Arch.Ppc64le in
      let bench =
        List.find
          (fun bch -> bch.Spec_suite.bench_name = "602.gcc_s")
          (Spec_suite.benchmarks arch)
      in
      let bin, _ = Spec_suite.compile arch bench in
      let orig = Runner.run_original bin in
      let parse = Parse.parse bin in
      line b "-- placement (ppc64le, 602.gcc-like with 40 MiB working set) --";
      let rows =
        List.map
          (fun (label, options) ->
            let rw = Rewriter.rewrite ~options parse in
            let s = rw.Rewriter.rw_stats in
            let r = Runner.run_rewritten rw in
            let overhead =
              match Runner.judge ~orig r with
              | Runner.Verified pct -> Stats.pct pct
              | Runner.Diverged -> "MISMATCH"
              | Runner.Crashed m -> "CRASH: " ^ m
            in
            [
              label;
              string_of_int s.Rewriter.s_short_trampolines;
              string_of_int s.Rewriter.s_long_trampolines;
              string_of_int s.Rewriter.s_multi_hop;
              string_of_int s.Rewriter.s_trap_trampolines;
              string_of_int r.Runner.r_traps;
              overhead;
            ])
          [
            ("full placement (ours)", Rewriter.default_options);
            ( "no superblocks",
              { Rewriter.default_options with Rewriter.use_superblocks = false } );
            ( "no scratch pool",
              { Rewriter.default_options with Rewriter.use_scratch_pool = false } );
            ( "no superblocks, no pool",
              {
                Rewriter.default_options with
                Rewriter.use_superblocks = false;
                use_scratch_pool = false;
              } );
            ( "every-block placement",
              { Rewriter.default_options with Rewriter.tramp_at_every_block = true } );
          ]
      in
      Buffer.add_string b
        (Table.render
           ~header:[ ""; "short"; "long"; "hop"; "trap"; "trap hits"; "overhead" ]
           rows);
      (* Unwinding ablation on the C++ exception benchmark: RA translation
         vs call emulation (section 6 vs the SRBI approach). *)
      line b "-- unwinding (x86-64, 620.omnetpp-like with C++ exceptions) --";
      let arch = Arch.X86_64 in
      let bench =
        List.find
          (fun bch -> bch.Spec_suite.bench_name = "620.omnetpp_s")
          (Spec_suite.benchmarks arch)
      in
      let bin, _ = Spec_suite.compile arch bench in
      let orig = Runner.run_original bin in
      let parse = Parse.parse bin in
      List.iter
        (fun (label, options) ->
          let rw = Rewriter.rewrite ~options parse in
          match Runner.judge ~orig (Runner.run_rewritten rw) with
          | Runner.Verified pct ->
              line b "  %-28s overhead %s" label (Stats.pct pct)
          | Runner.Diverged -> line b "  %-28s OUTPUT MISMATCH" label
          | Runner.Crashed m -> line b "  %-28s CRASH (%s)" label m)
        [
          ("runtime RA translation (ours)", Rewriter.default_options);
          ( "call emulation",
            {
              Rewriter.default_options with
              Rewriter.call_emulation = true;
              ra_translation = false;
            } );
          ( "no unwinding support",
            { Rewriter.default_options with Rewriter.ra_translation = false } );
        ])

(* ------------------------------------------------------------------ *)
(* Coverage attribution across modes and baselines                     *)
(* ------------------------------------------------------------------ *)

module Attribution = Icfg_core.Attribution

type attribution_cell = {
  at_cfl : int;
  at_trampolines : int;
  at_traps : int;
}

(* Per benchmark: SRBI baseline plus the three incremental modes, in
   [dir; jt; func-ptr] order for the monotonicity check. *)
let attribution_data arch =
  List.map
    (fun bench ->
      let bin, _ = Spec_suite.compile arch bench in
      let p_ours = Parse.parse bin in
      let p_srbi = Parse.parse ~fm:Failure_model.srbi bin in
      let srbi =
        (Rewriter.rewrite ~options:(Rewriter.srbi_like Rewriter.P_empty) p_srbi)
          .Rewriter.rw_attribution
      in
      let by_mode mode =
        (Rewriter.rewrite
           ~options:{ Rewriter.default_options with Rewriter.mode }
           p_ours)
          .Rewriter.rw_attribution
      in
      ( bench.Spec_suite.bench_name,
        srbi,
        [ by_mode Mode.Dir; by_mode Mode.Jt; by_mode Mode.Func_ptr ] ))
    (Spec_suite.benchmarks arch)

let attribution_cell a =
  {
    at_cfl = Attribution.cfl_total a;
    at_trampolines = Attribution.tramp_total a;
    at_traps = Attribution.trap_total a;
  }

let attribution () =
  buf_out (fun b ->
      line b "== Coverage attribution: causes across modes and baselines ==";
      let arch = Arch.X86_64 in
      let data = attribution_data arch in
      let columns = [ "SRBI"; "dir"; "jt"; "func-ptr" ] in
      (* The paper's coverage-table view: residual CFL blocks, placed
         trampolines and trap fallbacks per benchmark and configuration. *)
      line b "-- per-benchmark coverage (cfl blocks / trampolines / traps) --";
      Buffer.add_string b
        (Table.render
           ~header:("benchmark" :: columns)
           (List.map
              (fun (name, srbi, modes) ->
                name
                :: List.map
                     (fun a ->
                       let c = attribution_cell a in
                       Printf.sprintf "%d/%d/%d" c.at_cfl c.at_trampolines
                         c.at_traps)
                     (srbi :: modes))
              data));
      (* Aggregate per-cause histogram, one column per configuration. *)
      let agg =
        List.map
          (fun i ->
            let tbl = Hashtbl.create 32 in
            List.iter
              (fun (_, srbi, modes) ->
                let a = List.nth (srbi :: modes) i in
                List.iter
                  (fun (c, n) ->
                    Hashtbl.replace tbl c
                      (n + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
                  (Attribution.histogram a))
              data;
            tbl)
          [ 0; 1; 2; 3 ]
      in
      let causes =
        List.sort_uniq compare
          (List.concat_map
             (fun tbl -> Hashtbl.fold (fun c _ acc -> Attribution.key c :: acc) tbl [])
             agg)
      in
      let by_key tbl k =
        Hashtbl.fold
          (fun c n acc -> if Attribution.key c = k then acc + n else acc)
          tbl 0
      in
      line b "-- aggregate cause histogram --";
      Buffer.add_string b
        (Table.render
           ~header:("cause" :: columns)
           (List.map
              (fun k -> k :: List.map (fun tbl -> string_of_int (by_key tbl k)) agg)
              causes));
      (* Each mode rewrites strictly more control flow than the previous
         one, so residual CFL blocks and trap fallbacks must not increase
         along dir -> jt -> func-ptr. *)
      let violations =
        List.concat_map
          (fun (name, _, modes) ->
            let cells = List.map attribution_cell modes in
            let rec pairs = function
              | a :: (bx :: _ as rest) -> (a, bx) :: pairs rest
              | _ -> []
            in
            List.concat_map
              (fun (a, bx) ->
                (if bx.at_cfl > a.at_cfl then
                   [ Printf.sprintf "%s: cfl blocks increased (%d -> %d)" name a.at_cfl bx.at_cfl ]
                 else [])
                @
                if bx.at_traps > a.at_traps then
                  [ Printf.sprintf "%s: traps increased (%d -> %d)" name a.at_traps bx.at_traps ]
                else [])
              (pairs cells))
          data
      in
      match violations with
      | [] -> line b "monotonicity dir -> jt -> func-ptr: OK"
      | vs ->
          line b "monotonicity dir -> jt -> func-ptr: VIOLATED";
          List.iter (fun v -> line b "  %s" v) vs)

let registry =
  [
    ("table1", table1);
    ("figure1", figure1);
    ("figure2", figure2);
    ("table2", table2);
    ("table3", fun () -> table3 ());
    ("table3-detail", fun () -> table3_detail ());
    ("firefox", firefox);
    ("docker", docker);
    ("bolt", bolt);
    ("diogenes", diogenes);
    ("ablation", ablation);
    ("attribution", attribution);
  ]
