(* Harness tests: the experiment drivers must reproduce the paper's
   qualitative claims. These are the repository's headline integration
   tests — if they pass, the reproduction holds. *)

open Icfg_isa
module E = Icfg_harness.Experiments
module Runner = Icfg_harness.Runner
module Stats = Icfg_trace.Stats
module Baseline = Icfg_baselines.Baseline

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let test_figure2_claims () =
  let rows = E.figure2_data Arch.X86_64 in
  let find name =
    List.find
      (fun r ->
        String.length r.E.f2_failure >= String.length name
        && String.sub r.E.f2_failure 0 (String.length name) = name)
      rows
  in
  let accurate = find "none" in
  let graceful = find "analysis failure" in
  let over = find "over" in
  let under = find "under" in
  (* analysis failure: lower coverage, still correct *)
  Alcotest.(check bool) "accurate correct" true accurate.E.f2_correct;
  Alcotest.(check bool) "graceful correct" true graceful.E.f2_correct;
  Alcotest.(check bool) "graceful lowers coverage" true
    (graceful.E.f2_coverage_pct < accurate.E.f2_coverage_pct);
  (* over-approximation: correct, never fewer trampolines *)
  Alcotest.(check bool) "over correct" true over.E.f2_correct;
  Alcotest.(check bool) "over does not drop trampolines" true
    (over.E.f2_trampolines >= accurate.E.f2_trampolines);
  (* under-approximation: catastrophic *)
  Alcotest.(check bool) "under WRONG" false under.E.f2_correct

(* ------------------------------------------------------------------ *)
(* Table 3 (x86-64 slice)                                              *)
(* ------------------------------------------------------------------ *)

let test_table3_x86_claims () =
  let rows = E.table3_data Arch.X86_64 in
  let get name = List.find (fun r -> r.E.t3_approach = name) rows in
  let srbi = get "SRBI" in
  let dir = get "dir" in
  let jt = get "jt" in
  let fp = get "func-ptr" in
  let egalito = get "Egalito" in
  (* overhead strictly decreases with stronger rewriting *)
  Alcotest.(check bool)
    (Printf.sprintf "srbi (%.2f) > dir (%.2f)" srbi.E.t3_time_mean dir.E.t3_time_mean)
    true
    (srbi.E.t3_time_mean > dir.E.t3_time_mean);
  Alcotest.(check bool) "dir > jt" true (dir.E.t3_time_mean > jt.E.t3_time_mean);
  Alcotest.(check bool) "jt > fp" true (jt.E.t3_time_mean > fp.E.t3_time_mean);
  Alcotest.(check bool) "fp near zero" true (abs_float fp.E.t3_time_mean < 1.0);
  Alcotest.(check bool) "egalito <= fp" true
    (egalito.E.t3_time_mean <= fp.E.t3_time_mean +. 0.2);
  (* coverage: ours 100% on x86-64, above SRBI *)
  Alcotest.(check (float 0.001)) "ours full coverage" 100.0 dir.E.t3_cov_min;
  Alcotest.(check bool) "srbi lower coverage" true (srbi.E.t3_cov_min < 100.0);
  (* pass counts: ours all 19; egalito refuses the two C++ benchmarks *)
  Alcotest.(check int) "dir pass" 19 dir.E.t3_pass;
  Alcotest.(check int) "jt pass" 19 jt.E.t3_pass;
  Alcotest.(check int) "fp pass" 19 fp.E.t3_pass;
  Alcotest.(check int) "egalito pass" 17 egalito.E.t3_pass;
  Alcotest.(check bool) "srbi fails some" true (srbi.E.t3_pass < 19);
  (* size: egalito regenerates (roughly original size); ours grows *)
  Alcotest.(check bool) "egalito small" true (egalito.E.t3_size_mean < 5.0);
  Alcotest.(check bool) "ours grows" true (jt.E.t3_size_mean > 20.0)

let test_table3_ppc_size_inversion () =
  (* The paper's ppc64le headline: SRBI binaries are drastically larger
     than ours (trap mapping), the reverse of x86-64. *)
  let rows = E.table3_data Arch.Ppc64le in
  let get name = List.find (fun r -> r.E.t3_approach = name) rows in
  let srbi = get "SRBI" in
  let jt = get "jt" in
  Alcotest.(check bool)
    (Printf.sprintf "ppc64le srbi size (%.1f) >> ours (%.1f)"
       srbi.E.t3_size_mean jt.E.t3_size_mean)
    true
    (srbi.E.t3_size_mean > 2.0 *. jt.E.t3_size_mean);
  Alcotest.(check int) "ours pass 19" 19 jt.E.t3_pass;
  Alcotest.(check bool) "srbi fails the bulk benchmarks" true (srbi.E.t3_pass <= 17)

(* ------------------------------------------------------------------ *)
(* BOLT                                                                *)
(* ------------------------------------------------------------------ *)

let test_bolt_claims () =
  let f = E.bolt_data Arch.X86_64 `Funcs in
  Alcotest.(check int) "bolt cannot reorder functions" 0 f.E.bolt_ok;
  Alcotest.(check int) "ours reorders all" f.E.bolt_total f.E.ours_ok;
  let b = E.bolt_data Arch.X86_64 `Blocks in
  Alcotest.(check int) "bolt corrupts 10 of 19" 9 b.E.bolt_ok;
  Alcotest.(check int) "ours blocks all 19" 19 b.E.ours_ok

(* ------------------------------------------------------------------ *)
(* Diogenes                                                            *)
(* ------------------------------------------------------------------ *)

let test_diogenes_speedup_mechanism () =
  (* Scaled-down run: the legacy configuration needs trap trampolines, ours
     does not, and that's where the speedup comes from. *)
  List.iter
    (fun arch ->
      let bin, _ = Icfg_workloads.Apps.libcuda ~iters:25 arch in
      let subset = Icfg_workloads.Apps.libcuda_api_subset bin in
      let run outcome =
        match outcome with
        | Baseline.Rewritten rw -> Runner.run_rewritten rw
        | Baseline.Refused r -> Alcotest.failf "refused: %s" r
      in
      let legacy = run (Baseline.legacy_dyninst ~only:subset bin) in
      let ours = run (Baseline.ours_partial ~mode:Icfg_core.Mode.Jt ~only:subset bin) in
      Alcotest.(check bool) (Arch.name arch ^ " both ok") true
        (legacy.Runner.r_outcome = Icfg_runtime.Vm.Halted
        && ours.Runner.r_outcome = Icfg_runtime.Vm.Halted);
      Alcotest.(check int) (Arch.name arch ^ " ours trap-free") 0 ours.Runner.r_traps;
      if arch <> Arch.X86_64 then begin
        Alcotest.(check bool)
          (Arch.name arch ^ " legacy traps")
          true (legacy.Runner.r_traps > 100);
        Alcotest.(check bool)
          (Printf.sprintf "%s speedup (%d vs %d)" (Arch.name arch)
             legacy.Runner.r_cycles ours.Runner.r_cycles)
          true
          (legacy.Runner.r_cycles > 5 * ours.Runner.r_cycles)
      end)
    Arch.all

(* ------------------------------------------------------------------ *)
(* Stats helpers                                                       *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  Alcotest.(check (float 0.0001)) "mean" 2.0 (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 0.0001)) "max" 3.0 (Stats.max_f [ 1.; 3.; 2. ]);
  Alcotest.(check (float 0.0001)) "min" 1.0 (Stats.min_f [ 2.; 1.; 3. ]);
  Alcotest.(check (float 0.0001)) "empty mean" 0.0 (Stats.mean []);
  Alcotest.(check (float 0.0001)) "ratio" 50.0 (Stats.ratio_pct ~base:100 ~value:150);
  (* Degenerate bases (empty bench, zero cycles) must not divide by zero:
     the growth ratio over nothing is defined as 0, not value*100. *)
  Alcotest.(check (float 0.0001)) "ratio over zero base" 0.0
    (Stats.ratio_pct ~base:0 ~value:37);
  Alcotest.(check (float 0.0001)) "ratio over negative base" 0.0
    (Stats.ratio_pct ~base:(-4) ~value:10);
  Alcotest.(check string) "pct finite" "+50.00%" (Stats.pct 50.);
  Alcotest.(check string) "pct nan" "n/a" (Stats.pct Float.nan);
  Alcotest.(check string) "pct infinity" "n/a" (Stats.pct Float.infinity)

let test_table_render () =
  let s = Icfg_harness.Table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ] ] in
  Alcotest.(check bool) "contains cells" true
    (String.length s > 10
    && String.index_opt s 'x' <> None
    && String.index_opt s '-' <> None)

(* [Runner.parse], [Runner.rewrite] and [Runner.drive] keep a [?jobs]
   argument only so that the end-to-end benchmark under icfg-bench/,
   which passes [~jobs:1], compiles unchanged: any value gives exactly
   what omitting it gives. *)
let test_runner_ignores_jobs () =
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks Arch.X86_64) in
  let bin, _ = Icfg_workloads.Spec_suite.compile Arch.X86_64 bench in
  let drive ?jobs () =
    match Runner.drive ~approach:"ours/func-ptr" ?jobs bin with
    | Some (Baseline.Rewritten rw) -> rw
    | _ -> Alcotest.fail "ours/func-ptr did not rewrite"
  in
  let parsed = Test_golden.parse_view (Runner.parse bin) in
  let rewritten = Runner.rewrite bin and driven = drive () in
  List.iter
    (fun jobs ->
      let what s = Printf.sprintf "%s ~jobs:%d" s jobs in
      Alcotest.(check bool) (what "parse") true
        (parsed = Test_golden.parse_view (Runner.parse ~jobs bin));
      Test_golden.check_same ~what:(what "rewrite") rewritten
        (Runner.rewrite ~jobs bin);
      Test_golden.check_same ~what:(what "drive") driven (drive ~jobs ()))
    [ -1; 0; 1; 2; 8 ]

let suite =
  [
    ( "harness:runner",
      [
        Alcotest.test_case "parse, rewrite and drive ignore ?jobs" `Quick
          test_runner_ignores_jobs;
      ] );
    ( "harness:figure2",
      [ Alcotest.test_case "failure-mode claims" `Quick test_figure2_claims ] );
    ( "harness:table3",
      [
        Alcotest.test_case "x86-64 claims" `Slow test_table3_x86_claims;
        Alcotest.test_case "ppc64le size inversion" `Slow
          test_table3_ppc_size_inversion;
      ] );
    ("harness:bolt", [ Alcotest.test_case "claims" `Slow test_bolt_claims ]);
    ( "harness:diogenes",
      [ Alcotest.test_case "trap-elimination speedup" `Slow
          test_diogenes_speedup_mechanism ] );
    ( "harness:util",
      [
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "table render" `Quick test_table_render;
      ] );
  ]
