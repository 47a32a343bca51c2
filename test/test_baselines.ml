(* Baseline tests: each baseline's characteristic behaviour — refusals,
   failure modes, and overhead ordering relative to our system. *)

open Icfg_isa
open Icfg_codegen
module Binary = Icfg_obj.Binary
module Baseline = Icfg_baselines.Baseline
module Capabilities = Icfg_baselines.Capabilities
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode
module Runner = Icfg_harness.Runner

let run_outcome orig_bin outcome =
  match outcome with
  | Baseline.Refused r -> `Refused r
  | Baseline.Rewritten rw -> (
      let r = Runner.run_rewritten rw in
      match Runner.judge ~orig:(Runner.run_original orig_bin) r with
      | Runner.Verified _ -> `Pass r
      | Runner.Diverged -> `Mismatch
      | Runner.Crashed m -> `Crashed m)

let check_pass name result =
  match result with
  | `Pass _ -> ()
  | `Refused r -> Alcotest.failf "%s refused: %s" name r
  | `Crashed m -> Alcotest.failf "%s crashed: %s" name m
  | `Mismatch -> Alcotest.failf "%s output mismatch" name

(* ------------------------------------------------------------------ *)
(* Capabilities (Table 1)                                              *)
(* ------------------------------------------------------------------ *)

let test_table1_shape () =
  Alcotest.(check int) "seven approaches" 7 (List.length Capabilities.table1);
  let ours = List.nth Capabilities.table1 6 in
  Alcotest.(check string) "ours last" "Our work" ours.Capabilities.approach;
  Alcotest.(check bool) "ours rewrites indirect" true
    (ours.Capabilities.rewrites = Capabilities.R_indirect);
  Alcotest.(check bool) "ours needs no relocs" true
    (ours.Capabilities.reloc_use = Capabilities.Rel_none)

(* ------------------------------------------------------------------ *)
(* SRBI                                                                *)
(* ------------------------------------------------------------------ *)

let test_srbi_refuses_cpp_on_risc () =
  List.iter
    (fun arch ->
      let bin, _ = Compile.compile arch Test_codegen.prog_exceptions in
      match Baseline.srbi bin with
      | Baseline.Refused _ -> ()
      | Baseline.Rewritten _ ->
          Alcotest.failf "%s: srbi must refuse C++ exceptions" (Arch.name arch))
    [ Arch.Ppc64le; Arch.Aarch64 ]

let test_srbi_basic_roundtrip () =
  List.iter
    (fun arch ->
      let bin, _ = Compile.compile arch Test_codegen.prog_calls in
      check_pass (Arch.name arch ^ "/srbi") (run_outcome bin (Baseline.srbi bin)))
    Arch.all

let test_srbi_trapmap_section_on_ppc () =
  let bin, _ = Compile.compile Arch.Ppc64le Test_codegen.prog_calls in
  match Baseline.srbi bin with
  | Baseline.Rewritten rw ->
      Alcotest.(check bool) "trapmap present" true
        (Binary.section rw.Rewriter.rw_binary ".trapmap" <> None)
  | Baseline.Refused r -> Alcotest.failf "refused: %s" r

(* ------------------------------------------------------------------ *)
(* Egalito-style IR lowering                                           *)
(* ------------------------------------------------------------------ *)

let test_ir_lowering_requires_pie () =
  let bin, _ = Compile.compile Arch.X86_64 Test_codegen.prog_loop in
  match Baseline.ir_lowering bin with
  | Baseline.Refused _ -> ()
  | Baseline.Rewritten _ -> Alcotest.fail "must require PIE"

let test_ir_lowering_all_or_nothing () =
  let bin, _ =
    Compile.compile ~pie:true Arch.X86_64
      (Test_codegen.switch_prog Ir.Jt_data_table)
  in
  match Baseline.ir_lowering bin with
  | Baseline.Refused r ->
      Alcotest.(check bool) "names the function" true
        (String.length r > 10)
  | Baseline.Rewritten _ -> Alcotest.fail "must refuse unliftable functions"

let test_ir_lowering_roundtrip_and_shape () =
  List.iter
    (fun arch ->
      let bin, _ =
        Compile.compile ~pie:true arch (Test_codegen.switch_prog Ir.Jt_plain)
      in
      match Baseline.ir_lowering bin with
      | Baseline.Refused r -> Alcotest.failf "%s refused: %s" (Arch.name arch) r
      | Baseline.Rewritten rw as o ->
          check_pass (Arch.name arch ^ "/egalito") (run_outcome bin o);
          (* regenerated: no original .text, entry relocated *)
          Alcotest.(check bool) "no original text" true
            (Binary.section rw.Rewriter.rw_binary ".text" = None);
          Alcotest.(check bool) "entry moved into .instr" true
            (let e = rw.Rewriter.rw_binary.Binary.entry in
             match Binary.section rw.Rewriter.rw_binary ".instr" with
             | Some s -> Icfg_obj.Section.contains s e
             | None -> false);
          (* near-original size: regeneration, not duplication *)
          let s = rw.Rewriter.rw_stats in
          Alcotest.(check bool) "size within 25% of original" true
            (abs (s.Rewriter.s_new_size - s.Rewriter.s_orig_size) * 4
            < s.Rewriter.s_orig_size))
    Arch.all

let test_ir_lowering_metadata_refusals () =
  let libxul, _ = Icfg_workloads.Apps.libxul Arch.X86_64 in
  (match Baseline.ir_lowering libxul with
  | Baseline.Refused _ -> ()
  | _ -> Alcotest.fail "must refuse libxul");
  let docker, _ = Icfg_workloads.Apps.docker Arch.X86_64 in
  (match Baseline.ir_lowering docker with
  | Baseline.Refused _ -> ()
  | _ -> Alcotest.fail "must refuse docker");
  let libcuda, _ = Icfg_workloads.Apps.libcuda ~iters:5 Arch.X86_64 in
  match Baseline.ir_lowering libcuda with
  | Baseline.Refused r ->
      Alcotest.(check bool) "symbol versioning" true (String.length r > 0)
  | _ -> Alcotest.fail "must refuse libcuda"

(* ------------------------------------------------------------------ *)
(* E9Patch-style instruction patching                                  *)
(* ------------------------------------------------------------------ *)

let test_insn_patching_roundtrip_and_cost () =
  List.iter
    (fun arch ->
      let bin, _ = Compile.compile arch (Test_codegen.switch_prog Ir.Jt_plain) in
      match run_outcome bin (Baseline.insn_patching bin) with
      | `Pass r -> (
          (* compare against our jt mode: patching must be much slower *)
          match run_outcome bin (Baseline.ours ~mode:Mode.Jt bin) with
          | `Pass r_ours ->
              Alcotest.(check bool)
                (Printf.sprintf "%s patching (%d) slower than ours (%d)"
                   (Arch.name arch) r.Runner.r_cycles r_ours.Runner.r_cycles)
                true
                (r.Runner.r_cycles > r_ours.Runner.r_cycles)
          | _ -> Alcotest.fail "ours failed")
      | `Refused r -> Alcotest.failf "refused: %s" r
      | `Crashed m -> Alcotest.failf "%s crashed: %s" (Arch.name arch) m
      | `Mismatch -> Alcotest.failf "%s mismatch" (Arch.name arch))
    Arch.all

(* ------------------------------------------------------------------ *)
(* Multiverse-style dynamic translation                                *)
(* ------------------------------------------------------------------ *)

let test_dynamic_translation_roundtrip () =
  List.iter
    (fun arch ->
      List.iter
        (fun (name, prog) ->
          let bin, _ = Compile.compile arch prog in
          check_pass
            (Printf.sprintf "%s/dt/%s" (Arch.name arch) name)
            (run_outcome bin (Baseline.dynamic_translation bin)))
        [
          ("switch", Test_codegen.switch_prog Ir.Jt_plain);
          ("fptr", Test_codegen.prog_fptr);
          ("tailcall", Test_codegen.prog_tailcall);
        ])
    Arch.all

let test_dynamic_translation_uses_dt_sites () =
  let bin, _ = Compile.compile Arch.X86_64 Test_codegen.prog_fptr in
  match Baseline.dynamic_translation bin with
  | Baseline.Rewritten rw ->
      Alcotest.(check bool) "registered translation sites" true
        (Hashtbl.length rw.Rewriter.rw_dt_sites > 0)
  | Baseline.Refused r -> Alcotest.failf "refused: %s" r

(* ------------------------------------------------------------------ *)
(* BOLT-like                                                           *)
(* ------------------------------------------------------------------ *)

let test_bolt_function_reorder_needs_link_relocs () =
  let prog = Test_codegen.switch_prog Ir.Jt_plain in
  (* without -Wl,-q *)
  let bin, _ = Compile.compile Arch.X86_64 prog in
  (match Baseline.bolt_function_reorder bin with
  | Baseline.Refused msg ->
      Alcotest.(check bool) "BOLT-ERROR message" true
        (String.length msg > 10)
  | Baseline.Rewritten _ -> Alcotest.fail "must refuse");
  (* even as PIE (the paper stresses this) *)
  let bin_pie, _ = Compile.compile ~pie:true Arch.X86_64 prog in
  (match Baseline.bolt_function_reorder bin_pie with
  | Baseline.Refused _ -> ()
  | Baseline.Rewritten _ -> Alcotest.fail "must refuse PIE without link relocs");
  (* with -Wl,-q it works and runs *)
  let bin_q, _ = Compile.compile ~link_relocs:true Arch.X86_64 prog in
  check_pass "bolt with -q" (run_outcome bin_q (Baseline.bolt_function_reorder bin_q))

let test_bolt_block_reorder_corruption () =
  (* a binary with memory-indirect calls comes out corrupted *)
  let bin, _ = Compile.compile Arch.X86_64 Test_codegen.prog_fptr in
  (match run_outcome bin (Baseline.bolt_block_reorder bin) with
  | `Crashed _ -> ()
  | _ -> Alcotest.fail "expected corrupted binary");
  (* a plain binary reorders fine *)
  let bin2, _ = Compile.compile Arch.X86_64 Test_codegen.prog_loop in
  check_pass "bolt block reorder" (run_outcome bin2 (Baseline.bolt_block_reorder bin2))

(* ------------------------------------------------------------------ *)
(* Overhead ordering across approaches                                 *)
(* ------------------------------------------------------------------ *)

let test_overhead_ordering () =
  (* On a switch+fptr workload: patching > srbi > dir >= jt >= func-ptr. *)
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let cycles outcome =
    match run_outcome bin outcome with
    | `Pass r -> r.Runner.r_cycles
    | `Refused r -> Alcotest.failf "refused: %s" r
    | `Crashed m -> Alcotest.failf "crashed: %s" m
    | `Mismatch -> Alcotest.fail "mismatch"
  in
  let patching = cycles (Baseline.insn_patching bin) in
  let dir = cycles (Baseline.ours ~mode:Mode.Dir bin) in
  let jt = cycles (Baseline.ours ~mode:Mode.Jt bin) in
  let fp = cycles (Baseline.ours ~mode:Mode.Func_ptr bin) in
  Alcotest.(check bool)
    (Printf.sprintf "patching (%d) > dir (%d)" patching dir)
    true (patching > dir);
  Alcotest.(check bool) (Printf.sprintf "dir (%d) >= jt (%d)" dir jt) true (dir >= jt);
  Alcotest.(check bool) (Printf.sprintf "jt (%d) >= fp (%d)" jt fp) true (jt >= fp)

(* ------------------------------------------------------------------ *)
(* Refusal messages and their histogram keys                           *)
(*                                                                     *)
(* The corpus matrix buckets refusals by [Baseline.refusal_key], and   *)
(* the bench gate keys its refusal histograms on the result — both     *)
(* depend on these exact strings staying put.                          *)
(* ------------------------------------------------------------------ *)

module Spec = Icfg_workloads.Spec_suite
module Apps = Icfg_workloads.Apps

let refused name = function
  | Baseline.Refused r -> r
  | Baseline.Rewritten _ -> Alcotest.failf "%s: expected a refusal" name

let test_refusal_strings_stable () =
  let cpp, _ = Compile.compile Arch.Aarch64 Test_codegen.prog_exceptions in
  Alcotest.(check string) "srbi C++ refusal"
    "call emulation for C++ exceptions is only implemented on x86-64 in \
     Dyninst-10.2"
    (refused "srbi/cpp" (Baseline.srbi cpp));
  let gcc =
    List.find
      (fun b -> b.Spec.bench_name = "602.gcc_s")
      (Spec.benchmarks Arch.Ppc64le)
  in
  let gcc_bin, _ = Spec.compile Arch.Ppc64le gcc in
  Alcotest.(check string) "srbi trap refusal (the 602.gcc failure)"
    "heavy trap-trampoline use; Dyninst-10.2's runtime-library signal \
     delivery is broken (the 602.gcc failure)"
    (refused "srbi/trap" (Baseline.srbi gcc_bin));
  let non_pie, _ = Compile.compile Arch.X86_64 Test_codegen.prog_loop in
  Alcotest.(check string) "ir-lowering non-PIE refusal"
    "IR lowering requires PIE with run-time relocation entries"
    (refused "irl/pie" (Baseline.ir_lowering non_pie));
  let cpp_pie, _ =
    Compile.compile ~pie:true Arch.X86_64 Test_codegen.prog_exceptions
  in
  Alcotest.(check string) "ir-lowering C++ refusal"
    "C++ exceptions are not supported (known Egalito limitation)"
    (refused "irl/cpp" (Baseline.ir_lowering cpp_pie));
  let docker, _ = Apps.docker Arch.X86_64 in
  Alcotest.(check string) "ir-lowering Go refusal"
    "Go metadata and builtin stack unwinding are not supported"
    (refused "irl/go" (Baseline.ir_lowering docker));
  (* libxul itself trips the C++-exceptions check first; the Rust branch
     needs a binary whose only offending feature is the metadata. *)
  let rusty =
    let bin, _ = Compile.compile ~pie:true Arch.X86_64 Test_codegen.prog_calls in
    {
      bin with
      Binary.features =
        { bin.Binary.features with Binary.rust_metadata = true };
    }
  in
  Alcotest.(check string) "ir-lowering Rust refusal (the libxul failure)"
    "unsupported Rust metadata (the libxul failure)"
    (refused "irl/rust" (Baseline.ir_lowering rusty));
  let libcuda, _ = Apps.libcuda ~iters:5 Arch.X86_64 in
  Alcotest.(check string) "ir-lowering symver refusal (the libcuda failure)"
    "cannot rewrite symbol versioning information (the libcuda failure)"
    (refused "irl/symver" (Baseline.ir_lowering libcuda));
  Alcotest.(check string) "bolt link-relocs refusal"
    "BOLT-ERROR: function reordering only works when relocations are enabled"
    (refused "bolt" (Baseline.bolt_function_reorder non_pie))

let test_refusal_keys () =
  List.iter
    (fun (reason, key) ->
      Alcotest.(check string) reason key (Baseline.refusal_key reason))
    [
      ( "heavy trap-trampoline use; Dyninst-10.2's runtime-library signal \
         delivery is broken (the 602.gcc failure)",
        "tramp/trap" );
      ( "all-or-nothing: cannot lift function f0 (unresolved-indirect-jump)",
        "func/unresolved-indirect-jump" );
      ( "call emulation for C++ exceptions is only implemented on x86-64 in \
         Dyninst-10.2",
        "feature/cpp-exceptions" );
      ( "C++ exceptions are not supported (known Egalito limitation)",
        "feature/cpp-exceptions" );
      ( "IR lowering requires PIE with run-time relocation entries",
        "feature/non-pie" );
      ( "Go metadata and builtin stack unwinding are not supported",
        "feature/go-runtime" );
      ("unsupported Rust metadata (the libxul failure)", "feature/rust-metadata");
      ( "cannot rewrite symbol versioning information (the libcuda failure)",
        "feature/symbol-versioning" );
      ( "BOLT-ERROR: function reordering only works when relocations are \
         enabled",
        "feature/link-relocs" );
      ("some novel failure", "feature/other");
    ]

let test_roster_shape () =
  Alcotest.(check (list string)) "roster names and order"
    [
      "srbi"; "ir-lowering"; "insn-patching"; "dyn-translation"; "ours/dir";
      "ours/jt"; "ours/func-ptr";
    ]
    (List.map fst Baseline.approaches)

let suite =
  [
    ("baselines:table1", [ Alcotest.test_case "shape" `Quick test_table1_shape ]);
    ( "baselines:srbi",
      [
        Alcotest.test_case "refuses C++ on RISC" `Quick test_srbi_refuses_cpp_on_risc;
        Alcotest.test_case "roundtrip" `Quick test_srbi_basic_roundtrip;
        Alcotest.test_case "ppc trapmap section" `Quick
          test_srbi_trapmap_section_on_ppc;
      ] );
    ( "baselines:ir-lowering",
      [
        Alcotest.test_case "requires PIE" `Quick test_ir_lowering_requires_pie;
        Alcotest.test_case "all-or-nothing" `Quick test_ir_lowering_all_or_nothing;
        Alcotest.test_case "roundtrip and shape" `Quick
          test_ir_lowering_roundtrip_and_shape;
        Alcotest.test_case "metadata refusals" `Quick
          test_ir_lowering_metadata_refusals;
      ] );
    ( "baselines:patching",
      [
        Alcotest.test_case "roundtrip and cost" `Quick
          test_insn_patching_roundtrip_and_cost;
      ] );
    ( "baselines:dynamic-translation",
      [
        Alcotest.test_case "roundtrip" `Quick test_dynamic_translation_roundtrip;
        Alcotest.test_case "dt sites" `Quick test_dynamic_translation_uses_dt_sites;
      ] );
    ( "baselines:bolt",
      [
        Alcotest.test_case "function reorder needs link relocs" `Quick
          test_bolt_function_reorder_needs_link_relocs;
        Alcotest.test_case "block reorder corruption" `Quick
          test_bolt_block_reorder_corruption;
      ] );
    ( "baselines:ordering",
      [ Alcotest.test_case "overhead ordering" `Quick test_overhead_ordering ] );
    ( "baselines:refusals",
      [
        Alcotest.test_case "refusal strings stable" `Quick
          test_refusal_strings_stable;
        Alcotest.test_case "refusal histogram keys" `Quick test_refusal_keys;
        Alcotest.test_case "roster shape" `Quick test_roster_shape;
      ] );
  ]
