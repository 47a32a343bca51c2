(* Workload tests: the SPEC-like suite and the application analogues are
   deterministic, compile on every architecture, and execute correctly. *)

open Icfg_isa
module Binary = Icfg_obj.Binary
module Spec = Icfg_workloads.Spec_suite
module Apps = Icfg_workloads.Apps
module Gen = Icfg_workloads.Gen
module Rng = Icfg_workloads.Rng
module Vm = Icfg_runtime.Vm
module Runner = Icfg_harness.Runner

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  let c = Rng.create 8 in
  let zs = List.init 100 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let rng_bounds =
  QCheck2.Test.make ~count:500 ~name:"rng stays in bounds"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 500))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.int t bound in
          v >= 0 && v < bound)
        (List.init 50 (fun i -> i)))

let test_rng_shuffle_permutes () =
  let t = Rng.create 3 in
  let l = List.init 20 (fun i -> i) in
  let s = Rng.shuffle t l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let test_suite_shape () =
  List.iter
    (fun arch ->
      let benches = Spec.benchmarks arch in
      Alcotest.(check int) "19 benchmarks" 19 (List.length benches);
      let fortran =
        List.filter
          (fun b -> List.mem Binary.Fortran b.Spec.langs)
          benches
      in
      Alcotest.(check bool) "fortran-flavoured benchmarks present" true
        (List.length fortran >= 7);
      let exc = List.filter (fun b -> b.Spec.has_exceptions) benches in
      Alcotest.(check int) "two C++ exception benchmarks" 2 (List.length exc))
    Arch.all

let test_suite_deterministic () =
  let b1 = List.nth (Spec.benchmarks Arch.X86_64) 4 in
  let b2 = List.nth (Spec.benchmarks Arch.X86_64) 4 in
  let bin1, _ = Spec.compile Arch.X86_64 b1 in
  let bin2, _ = Spec.compile Arch.X86_64 b2 in
  let t1 = Binary.text bin1 and t2 = Binary.text bin2 in
  Alcotest.(check bool) "identical text" true
    (Bytes.equal t1.Icfg_obj.Section.data t2.Icfg_obj.Section.data)

let test_all_benchmarks_run () =
  List.iter
    (fun arch ->
      List.iter
        (fun bench ->
          let bin, _ = Spec.compile arch bench in
          let r = Runner.original_vm bin in
          (match r.Vm.outcome with
          | Vm.Halted -> ()
          | Vm.Crashed m ->
              Alcotest.failf "%s/%s crashed: %s" (Arch.name arch)
                bench.Spec.bench_name m);
          Alcotest.(check bool)
            (bench.Spec.bench_name ^ " produces output")
            true
            (r.Vm.output <> []))
        (Spec.benchmarks arch))
    Arch.all

let test_benchmarks_run_as_pie () =
  List.iter
    (fun arch ->
      let bench = List.nth (Spec.benchmarks arch) 0 in
      let bin, _ = Spec.compile ~pie:true arch bench in
      let nonpie, _ = Spec.compile arch bench in
      let r = Runner.original_vm bin and r0 = Runner.original_vm nonpie in
      Alcotest.(check bool) "pie halted" true (r.Vm.outcome = Vm.Halted);
      (* position independence: identical behaviour at a different base *)
      Alcotest.(check (list int)) (Arch.name arch ^ " same output") r0.Vm.output
        r.Vm.output)
    Arch.all

let test_ppc_bulk_data () =
  (* the designated ppc64le benchmarks carry a large working set *)
  let benches = Spec.benchmarks Arch.Ppc64le in
  let gcc = List.find (fun b -> b.Spec.bench_name = "602.gcc_s") benches in
  Alcotest.(check bool) "gcc bulk" true (gcc.Spec.bulk_data > 1 lsl 24);
  let bin, _ = Spec.compile Arch.Ppc64le gcc in
  Alcotest.(check bool) ".bigdata present" true
    (Binary.section bin ".bigdata" <> None)

(* ------------------------------------------------------------------ *)
(* Apps                                                                *)
(* ------------------------------------------------------------------ *)

let test_libxul () =
  let bin, _ = Apps.libxul Arch.X86_64 in
  Alcotest.(check bool) "pie" true bin.Binary.pie;
  Alcotest.(check bool) "rust metadata" true
    bin.Binary.features.Binary.rust_metadata;
  Alcotest.(check bool) "versioned symbols" true
    (List.exists
       (fun (s : Icfg_obj.Symbol.t) -> s.Icfg_obj.Symbol.version <> None)
       bin.Binary.symbols);
  let r = Runner.original_vm bin in
  Alcotest.(check bool) "runs" true (r.Vm.outcome = Vm.Halted)

let test_docker () =
  List.iter
    (fun arch ->
      let bin, _ = Apps.docker arch in
      Alcotest.(check bool) "go runtime" true bin.Binary.features.Binary.go_runtime;
      Alcotest.(check bool) "functab section" true
        (Binary.section bin ".gopclntab" <> None);
      Alcotest.(check bool) "findfunc exists" true
        (Binary.symbol bin "runtime.findfunc" <> None);
      let r = Runner.original_vm bin in
      match r.Vm.outcome with
      | Vm.Halted ->
          Alcotest.(check bool)
            (Arch.name arch ^ " emits traceback ids")
            true
            (List.length r.Vm.output > 3)
      | Vm.Crashed m -> Alcotest.failf "%s: %s" (Arch.name arch) m)
    Arch.all

let test_libcuda () =
  let bin, _ = Apps.libcuda ~iters:20 Arch.X86_64 in
  let subset = Apps.libcuda_api_subset bin in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exists") true (Binary.symbol bin name <> None))
    subset;
  let total = List.length (Binary.func_symbols bin) in
  Alcotest.(check bool) "strict subset" true (List.length subset < total);
  let r = Runner.original_vm bin in
  Alcotest.(check bool) "runs" true (r.Vm.outcome = Vm.Halted)

let test_go_vtab_failure_is_mode_specific () =
  (* the same docker binary passes jt and fails func-ptr *)
  let arch = Arch.X86_64 in
  let bin, _ = Apps.docker arch in
  let parse = Icfg_analysis.Parse.parse bin in
  let module Rewriter = Icfg_core.Rewriter in
  let try_mode mode =
    let rw =
      Rewriter.rewrite ~options:{ Rewriter.default_options with Rewriter.mode }
        parse
    in
    (Runner.run_rewritten rw).Runner.r_outcome
  in
  Alcotest.(check bool) "jt passes" true (try_mode Icfg_core.Mode.Jt = Vm.Halted);
  Alcotest.(check bool) "func-ptr fails" true
    (try_mode Icfg_core.Mode.Func_ptr <> Vm.Halted)

(* ------------------------------------------------------------------ *)
(* Gen spec validation                                                 *)
(* ------------------------------------------------------------------ *)

let test_gen_validation () =
  let expect_invalid name spec =
    match Gen.build spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "iters zero" { Gen.default_spec with Gen.iters = 0 };
  expect_invalid "iters over cap"
    { Gen.default_spec with Gen.iters = Gen.max_iters + 1 };
  expect_invalid "cases not a power of two"
    { Gen.default_spec with Gen.cases = 6 };
  expect_invalid "cases zero" { Gen.default_spec with Gen.cases = 0 };
  expect_invalid "negative switches"
    { Gen.default_spec with Gen.n_switch = -1 };
  expect_invalid "no compute targets"
    { Gen.default_spec with Gen.n_compute = 0 };
  (* build_go shares the validation *)
  (match Gen.build_go { Gen.default_spec with Gen.iters = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "build_go: expected Invalid_argument");
  (* the boundary values themselves are fine *)
  ignore
    (Gen.build { Gen.default_spec with Gen.iters = 1; cases = 1; inner = 1 });
  ignore (Gen.build { Gen.default_spec with Gen.iters = Gen.max_iters })

let suite =
  [
    ( "workloads:rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        QCheck_alcotest.to_alcotest rng_bounds;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
      ] );
    ( "workloads:suite",
      [
        Alcotest.test_case "shape" `Quick test_suite_shape;
        Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
        Alcotest.test_case "all benchmarks run (3 arches)" `Slow
          test_all_benchmarks_run;
        Alcotest.test_case "PIE equivalence" `Quick test_benchmarks_run_as_pie;
        Alcotest.test_case "ppc bulk data" `Quick test_ppc_bulk_data;
      ] );
    ( "workloads:apps",
      [
        Alcotest.test_case "libxul" `Quick test_libxul;
        Alcotest.test_case "docker" `Quick test_docker;
        Alcotest.test_case "libcuda" `Quick test_libcuda;
        Alcotest.test_case "go vtab failure is mode-specific" `Quick
          test_go_vtab_failure_is_mode_specific;
      ] );
    ( "workloads:gen",
      [ Alcotest.test_case "spec validation" `Quick test_gen_validation ] );
  ]
