(* End-to-end rewriting tests: the paper's strong correctness test.

   Every program is compiled, parsed, rewritten (original code bytes
   overwritten with illegal instructions, trampolines installed), and
   executed through [Runner]. Under [Runner.strong_test] the rewritten run
   must (a) halt, (b) produce identical observable output, and (c) execute
   every basic block of every relocated function exactly as many times as
   a ground-truth profile of the original binary reports. Cases whose
   options the strong test overrides run [Runner]'s two measured runs and
   judge them with [Runner.judge]. *)

open Icfg_isa
open Icfg_codegen
open Icfg_analysis
open Icfg_core
module Binary = Icfg_obj.Binary
module Runtime_lib = Icfg_runtime.Runtime_lib
module Runner = Icfg_harness.Runner

(* The paper's strong test ({!Runner.strong_test}) of [prog] compiled for
   [arch]. *)
let strong ?(pie = false) ?fm ~options arch prog =
  Runner.strong_test ?fm ~options (fst (Compile.compile ~pie arch prog))

(* The rewrite of [prog] compiled for [arch], not run. *)
let rewrite ~options arch prog =
  Runner.rewrite ~options (fst (Compile.compile arch prog))

let no_problems name (t : Runner.strong) =
  Alcotest.(check (list string))
    (name ^ ": no problems") []
    (List.map (Format.asprintf "%a" Runner.pp_problem) t.Runner.st_problems)

let rewritten_crashed (t : Runner.strong) =
  List.exists
    (function Runner.Rewritten_crashed _ -> true | _ -> false)
    t.Runner.st_problems

(* For options the strong test would override (payload, granularity,
   overwrite): both measured runs, and what the counting payload
   counted. *)
type measured = {
  bin : Binary.t;
  rw : Rewriter.t;
  orig : Runner.run;
  run : Runner.run;
  counters : (int, int) Hashtbl.t;
}

let measured ~options arch prog =
  let bin, _ = Compile.compile arch prog in
  let rw = Runner.rewrite ~options bin in
  let counters = Hashtbl.create 64 in
  let run = Runner.run_rewritten ~counters rw in
  { bin; rw; orig = Runner.run_original bin; run; counters }

let check_verified name ~orig r =
  match Runner.judge ~orig r with
  | Runner.Verified _ -> ()
  | Runner.Diverged -> Alcotest.failf "%s: output diverged" name
  | Runner.Crashed m -> Alcotest.failf "%s: crashed: %s" name m

let counting_options mode =
  { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

let all_progs =
  [
    ("arith", Test_codegen.prog_arith);
    ("loop", Test_codegen.prog_loop);
    ("calls", Test_codegen.prog_calls);
    ("recursion", Test_codegen.prog_recursion);
    ("switch", Test_codegen.switch_prog Ir.Jt_plain);
    ("switch-spilled", Test_codegen.switch_prog Ir.Jt_spilled_base);
    ("fptr", Test_codegen.prog_fptr);
    ("tailcall", Test_codegen.prog_tailcall);
    ("exceptions", Test_codegen.prog_exceptions);
    ("nested-try", Test_codegen.prog_nested_try);
  ]

let test_mode_matrix mode pie () =
  List.iter
    (fun arch ->
      List.iter
        (fun (pname, prog) ->
          let name =
            Printf.sprintf "%s/%s/%s%s" (Arch.name arch) (Mode.name mode) pname
              (if pie then "/pie" else "")
          in
          no_problems name
            (strong ~pie ~options:(counting_options mode) arch prog))
        all_progs)
    Arch.all

let test_go_rewriting () =
  List.iter
    (fun arch ->
      List.iter
        (fun mode ->
          let name = Printf.sprintf "%s/go/%s" (Arch.name arch) (Mode.name mode) in
          let options = counting_options mode in
          no_problems name (strong ~options arch Test_codegen.go_prog);
          Alcotest.(check bool) (name ^ " go hook") true
            (rewrite ~options arch Test_codegen.go_prog).Rewriter.rw_go_hook)
        [ Mode.Dir; Mode.Jt ])
    Arch.all

let test_go_without_ra_translation_fails () =
  (* Without RA translation (and without call emulation), the Go traceback
     sees relocated PCs and panics — the failure the paper's design
     prevents. *)
  List.iter
    (fun arch ->
      let options =
        {
          (counting_options Mode.Jt) with
          Rewriter.ra_translation = false;
          call_emulation = false;
        }
      in
      if not (rewritten_crashed (strong ~options arch Test_codegen.go_prog)) then
        Alcotest.failf "%s: expected a go panic without RA translation"
          (Arch.name arch))
    Arch.all

let test_exceptions_without_ra_translation_fail () =
  List.iter
    (fun arch ->
      let options =
        {
          (counting_options Mode.Jt) with
          Rewriter.ra_translation = false;
          call_emulation = false;
        }
      in
      (* Unwinding by luck is impossible: relocated PCs have no FDEs. *)
      if not (rewritten_crashed (strong ~options arch Test_codegen.prog_exceptions))
      then Alcotest.failf "%s: expected unwind failure" (Arch.name arch))
    Arch.all

let test_call_emulation_supports_exceptions () =
  (* SRBI-style call emulation keeps original return addresses on the
     stack, so unwinding works without RA translation. *)
  List.iter
    (fun arch ->
      let options = Rewriter.srbi_like Rewriter.P_count in
      no_problems
        (Arch.name arch ^ "/srbi/exceptions")
        (strong ~options arch Test_codegen.prog_exceptions))
    Arch.all

let test_srbi_matrix () =
  List.iter
    (fun arch ->
      List.iter
        (fun (pname, prog) ->
          let name = Printf.sprintf "%s/srbi/%s" (Arch.name arch) pname in
          no_problems name
            (strong ~fm:Failure_model.srbi
               ~options:(Rewriter.srbi_like Rewriter.P_count) arch prog))
        [
          ("arith", Test_codegen.prog_arith);
          ("loop", Test_codegen.prog_loop);
          ("calls", Test_codegen.prog_calls);
          ("switch", Test_codegen.switch_prog Ir.Jt_plain);
          ("fptr", Test_codegen.prog_fptr);
        ])
    Arch.all

let test_partial_instrumentation () =
  (* Diogenes-style: instrument a subset; the rest keeps running in the
     original text. *)
  List.iter
    (fun arch ->
      let options =
        { (counting_options Mode.Jt) with Rewriter.only = Some [ "classify" ] }
      in
      let prog = Test_codegen.switch_prog Ir.Jt_plain in
      let t = strong ~options arch prog in
      no_problems (Arch.name arch ^ "/partial") t;
      Alcotest.(check int)
        (Arch.name arch ^ " instrumented exactly one")
        1 t.Runner.st_stats.Rewriter.s_funcs_instrumented;
      (* counters exist only for classify's blocks *)
      let m = measured ~options arch prog in
      let classify = Option.get (Binary.symbol m.bin "classify") in
      Hashtbl.iter
        (fun blk _ ->
          Alcotest.(check bool) "counter in classify" true
            (blk >= classify.Icfg_obj.Symbol.addr
            && blk < classify.Icfg_obj.Symbol.addr + classify.Icfg_obj.Symbol.size))
        m.counters)
    Arch.all

let test_uninstrumentable_function_skipped () =
  (* A function with an unresolvable jump table is left in place; everything
     else is still rewritten and the program still works. *)
  List.iter
    (fun arch ->
      let t =
        strong ~options:(counting_options Mode.Jt) arch
          (Test_codegen.switch_prog Ir.Jt_data_table)
      in
      no_problems (Arch.name arch ^ "/data-table") t;
      let stats = t.Runner.st_stats in
      Alcotest.(check bool)
        (Arch.name arch ^ " skipped one function")
        true
        (stats.Rewriter.s_funcs_instrumented < stats.Rewriter.s_funcs_total))
    Arch.all

let test_adjusted_pointer_rewriting () =
  (* Listing 1: &goexit + 1 loaded, adjusted and called; func-ptr mode must
     compensate the slot so the arithmetic lands on the relocated block. *)
  List.iter
    (fun arch ->
      let adj = if arch = Arch.X86_64 then 1 else 4 in
      let t =
        strong ~options:(counting_options Mode.Func_ptr) arch
          (Test_analysis.go_arith_prog adj)
      in
      no_problems (Arch.name arch ^ "/goarith") t;
      Alcotest.(check bool)
        (Arch.name arch ^ " rewrote slots")
        true
        (t.Runner.st_stats.Rewriter.s_rewritten_slots >= 1))
    Arch.all

let test_pie_matrix () =
  List.iter
    (fun arch ->
      List.iter
        (fun (pname, prog) ->
          List.iter
            (fun mode ->
              let name =
                Printf.sprintf "%s/pie/%s/%s" (Arch.name arch) (Mode.name mode)
                  pname
              in
              no_problems name
                (strong ~pie:true ~options:(counting_options mode) arch prog))
            [ Mode.Jt; Mode.Func_ptr ])
        [
          ("switch", Test_codegen.switch_prog Ir.Jt_plain);
          ("fptr", Test_codegen.prog_fptr);
          ("exceptions", Test_codegen.prog_exceptions);
        ])
    Arch.all

let test_stats_sanity () =
  List.iter
    (fun arch ->
      let s =
        (rewrite ~options:(counting_options Mode.Jt) arch
           (Test_codegen.switch_prog Ir.Jt_plain))
          .Rewriter.rw_stats
      in
      Alcotest.(check bool) "has trampolines" true (s.Rewriter.s_trampolines > 0);
      Alcotest.(check bool) "cloned the table" true (s.Rewriter.s_cloned_tables = 1);
      Alcotest.(check bool) "grew" true (s.Rewriter.s_new_size > s.Rewriter.s_orig_size);
      Alcotest.(check bool) "cfl <= blocks" true
        (s.Rewriter.s_cfl_blocks <= s.Rewriter.s_blocks))
    Arch.all

let test_cfl_fewer_with_stronger_modes () =
  (* jt removes jump-table target blocks from the CFL set. *)
  List.iter
    (fun arch ->
      let get_cfl mode =
        (rewrite ~options:(counting_options mode) arch
           (Test_codegen.switch_prog Ir.Jt_plain))
          .Rewriter.rw_stats.Rewriter.s_cfl_blocks
      in
      let dir = get_cfl Mode.Dir and jt = get_cfl Mode.Jt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jt (%d) < dir (%d)" (Arch.name arch) jt dir)
        true (jt < dir))
    Arch.all

let test_bounce_reduction () =
  (* The relocated run bounces less in jt mode than dir mode: compare the
     cycle counts (same payload, same binary). *)
  List.iter
    (fun arch ->
      let cycles mode =
        let m =
          measured
            ~options:{ (counting_options mode) with Rewriter.payload = P_empty }
            arch
            (Test_codegen.switch_prog Ir.Jt_plain)
        in
        check_verified (Arch.name arch ^ "/bounce") ~orig:m.orig m.run;
        m.run.Runner.r_cycles
      in
      let dir = cycles Mode.Dir and jt = cycles Mode.Jt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: jt cycles (%d) <= dir cycles (%d)" (Arch.name arch)
           jt dir)
        true (jt <= dir))
    Arch.all

let test_ra_map_present () =
  List.iter
    (fun arch ->
      let rw =
        rewrite ~options:(counting_options Mode.Jt) arch
          Test_codegen.prog_exceptions
      in
      Alcotest.(check bool) "ra map nonempty" true
        (Runtime_lib.Ra_map.size rw.Rewriter.rw_ra_map > 0);
      Alcotest.(check bool) ".ra_map section" true
        (Binary.section rw.Rewriter.rw_binary ".ra_map" <> None);
      Alcotest.(check bool) ".instr section" true
        (Binary.section rw.Rewriter.rw_binary ".instr" <> None);
      (* old dynamic sections renamed *)
      Alcotest.(check bool) "dynsym.old" true
        (Binary.section rw.Rewriter.rw_binary ".dynsym.old" <> None))
    Arch.all

(* Code reordering (section 8.3): reversing function or block emission
   order must preserve behaviour (fall-through edges are materialized). *)
let test_reorder_roundtrips () =
  List.iter
    (fun arch ->
      List.iter
        (fun order ->
          List.iter
            (fun (pname, prog) ->
              let name =
                Printf.sprintf "%s/%s/%s" (Arch.name arch)
                  (match order with
                  | `Reverse_funcs -> "rev-funcs"
                  | `Reverse_blocks -> "rev-blocks")
                  pname
              in
              let options =
                {
                  (counting_options Mode.Jt) with
                  Rewriter.order = (order :> [ `Original | `Reverse_funcs | `Reverse_blocks ]);
                }
              in
              no_problems name (strong ~options arch prog))
            [
              ("loop", Test_codegen.prog_loop);
              ("switch", Test_codegen.switch_prog Ir.Jt_plain);
              ("fptr", Test_codegen.prog_fptr);
              ("exceptions", Test_codegen.prog_exceptions);
              ("recursion", Test_codegen.prog_recursion);
            ])
        [ `Reverse_funcs; `Reverse_blocks ])
    Arch.all

(* Regression: a try range that starts mid-block, with the exception
   unwinding through an indirect-call frame. The RA map must translate the
   caller-frame lookup (ra-1) exactly, or the landing pad is missed. *)
let midblock_try_prog =
  Ir.program ~name:"midblock-try"
    ~features:{ Binary.no_features with Binary.cpp_exceptions = true }
    ~main:"main"
    [
      Ir.func "thrower" [ "x" ]
        [
          Ir.If
            ( Icfg_isa.Insn.Eq,
              Bin (Band, Var "x", Int 3),
              Int 0,
              [ Ir.Throw (Var "x") ],
              [] );
          Ir.Return (Bin (Badd, Var "x", Int 13));
        ];
      Ir.func "catcher" [ "x" ]
        [
          (* the Let makes the try range start mid-block *)
          Ir.Let ("out", Int 0);
          Ir.Try
            ( [
                Ir.Call (Some "r", Via_ptr (Func_addr "thrower"), [ Var "x" ]);
                Ir.Set (Lvar "out", Var "r");
              ],
              "e",
              [ Ir.Set (Lvar "out", Bin (Badd, Var "e", Int 1000)) ] );
          Ir.Return (Var "out");
        ];
      Ir.func "main" []
        [
          Ir.For
            ( "i",
              0,
              9,
              [
                Ir.Call (Some "v", Direct "catcher", [ Var "i" ]);
                Ir.Print (Var "v");
              ] );
          Ir.Return (Int 0);
        ];
    ]

let test_midblock_try_regression () =
  List.iter
    (fun arch ->
      no_problems
        (Arch.name arch ^ "/midblock-try")
        (strong ~options:(counting_options Mode.Jt) arch midblock_try_prog);
      (* and SRBI's unemulated indirect calls make exactly this crash on
         x86-64 (the Dyninst-10.2 defect the paper reports) *)
      if
        arch = Arch.X86_64
        && not
             (rewritten_crashed
                (strong ~options:(Rewriter.srbi_like Rewriter.P_count) arch
                   midblock_try_prog))
      then Alcotest.fail "srbi should crash on this program")
    Arch.all

(* ppc64le with a large working set: the relocated area is beyond the
   32 MiB short-branch range, so placement must use the 4-instruction long
   sequences (and save/restore where no register is dead) — without traps. *)
let test_ppc_long_trampolines () =
  let prog = Test_codegen.switch_prog Ir.Jt_plain in
  let bin, _ =
    Icfg_codegen.Compile.compile ~bulk_data:(48 * 1024 * 1024) Arch.Ppc64le prog
  in
  (* and the rewritten binary passes the strong test *)
  let t = Runner.strong_test ~options:Rewriter.default_options bin in
  no_problems "ppc64le long trampolines" t;
  let s = t.Runner.st_stats in
  Alcotest.(check bool) "used long trampolines" true (s.Rewriter.s_long_trampolines > 0);
  Alcotest.(check int) "no traps" 0 s.Rewriter.s_trap_trampolines

(* Function-entry instrumentation (the paper's high-level semantics): the
   entry payload must run exactly once per call — no more (even with loops
   around the call), no less. *)
let test_func_entry_granularity () =
  List.iter
    (fun arch ->
      let options =
        {
          (counting_options Mode.Jt) with
          Rewriter.granularity = Rewriter.G_func_entry;
        }
      in
      let m = measured ~options arch Test_codegen.prog_recursion in
      check_verified (Arch.name arch ^ "/entry-granularity") ~orig:m.orig m.run;
      let entry = (Option.get (Binary.symbol m.bin "fib")).Icfg_obj.Symbol.addr in
      (* fib 10 makes 177 calls to fib *)
      Alcotest.(check (option int))
        (Arch.name arch ^ " fib called 177 times")
        (Some 177)
        (Hashtbl.find_opt m.counters entry);
      (* only entry blocks are counted *)
      Hashtbl.iter
        (fun blk _ ->
          Alcotest.(check bool) "counter at a function entry" true
            (match Binary.symbol_at m.bin blk with
            | Some s -> s.Icfg_obj.Symbol.addr = blk
            | None -> false))
        m.counters)
    Arch.all

(* Sparse placement (the section 4.2 refinement): with entry-only
   instrumentation and the original code preserved, only entry blocks get
   trampolines — far fewer than CFL placement — and entry counts stay
   exact even though execution runs hybrid. *)
let test_sparse_placement () =
  List.iter
    (fun arch ->
      List.iter
        (fun (pname, prog) ->
          let sparse_opts =
            {
              (counting_options Mode.Dir) with
              Rewriter.granularity = Rewriter.G_func_entry;
              overwrite_original = false;
              sparse_placement = true;
            }
          in
          let dense_opts =
            { sparse_opts with Rewriter.sparse_placement = false }
          in
          let name = Printf.sprintf "%s/sparse/%s" (Arch.name arch) pname in
          let sparse = measured ~options:sparse_opts arch prog in
          check_verified name ~orig:sparse.orig sparse.run;
          let dense = measured ~options:dense_opts arch prog in
          (* trampolines = number of instrumented functions, and never more
             than dense placement *)
          let s = sparse.rw.Rewriter.rw_stats in
          Alcotest.(check int)
            (name ^ " one trampoline per function")
            s.Rewriter.s_funcs_instrumented s.Rewriter.s_trampolines;
          Alcotest.(check bool)
            (name ^ " fewer than CFL placement")
            true
            (s.Rewriter.s_trampolines
            <= dense.rw.Rewriter.rw_stats.Rewriter.s_trampolines);
          (* entry counts match the dense run's entry counts *)
          let entries m =
            List.sort compare (List.of_seq (Hashtbl.to_seq m.counters))
          in
          Alcotest.(check (list (pair int int)))
            (name ^ " entry counts") (entries dense) (entries sparse))
        [
          ("switch", Test_codegen.switch_prog Ir.Jt_plain);
          ("fptr", Test_codegen.prog_fptr);
          ("recursion", Test_codegen.prog_recursion);
        ])
    Arch.all;
  (* misuse is rejected *)
  let bad =
    {
      Rewriter.default_options with
      Rewriter.sparse_placement = true;
      overwrite_original = true;
      granularity = Rewriter.G_func_entry;
    }
  in
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.X86_64 Test_codegen.prog_loop
  in
  match Rewriter.rewrite ~options:bad (Parse.parse bin) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sparse placement over destroyed code must be rejected"

(* overwrite_original = false leaves original bytes intact: the rewritten
   binary must still behave identically (trampolines shadow the entries). *)
let test_no_overwrite_mode () =
  List.iter
    (fun arch ->
      let options =
        { (counting_options Mode.Jt) with Rewriter.overwrite_original = false }
      in
      let m = measured ~options arch (Test_codegen.switch_prog Ir.Jt_plain) in
      check_verified (Arch.name arch ^ "/no-overwrite") ~orig:m.orig m.run)
    Arch.all

(* Emit copies only the sections it writes, so an output shares every
   other section buffer with its input. Pinned over every ISA and ours/*
   mode: a rewrite leaves its input's image byte-identical. On ppc64le
   602.gcc_s the 40 MiB .bigdata, which no write touches, keeps its empty
   stored prefix and its whole zero tail, while the overwritten and
   trampolined .text is a copy. *)
let test_output_shares_unwritten_sections () =
  let module Spec = Icfg_workloads.Spec_suite in
  let module Section = Icfg_obj.Section in
  let image (b : Binary.t) =
    List.map
      (fun (s : Section.t) ->
        (s.Section.name, Digest.bytes s.Section.data, Section.size s))
      b.Binary.sections
  in
  let rewrite approach bin =
    match Icfg_harness.Runner.drive ~approach bin with
    | Some (Icfg_baselines.Baseline.Rewritten rw) -> rw.Rewriter.rw_binary
    | Some (Icfg_baselines.Baseline.Refused r) ->
        Alcotest.failf "%s refused: %s" approach r
    | None -> Alcotest.failf "%s is not on the roster" approach
  in
  let approaches = [ "ours/dir"; "ours/jt"; "ours/func-ptr" ] in
  let gcc =
    List.find
      (fun (b : Spec.bench) -> b.Spec.bench_name = "602.gcc_s")
      (Spec.benchmarks Arch.Ppc64le)
  in
  List.iter
    (fun (arch, bench) ->
      let bin, _ = Spec.compile arch bench in
      let before = image bin in
      List.iter
        (fun approach ->
          let what =
            Printf.sprintf "%s %s %s" (Arch.name arch) bench.Spec.bench_name
              approach
          in
          let out = rewrite approach bin in
          Alcotest.(check bool)
            (what ^ ": input unchanged")
            true
            (image bin = before);
          if bench == gcc then begin
            let data name b = (Binary.section_exn b name).Section.data in
            let big = Binary.section_exn out ".bigdata" in
            Alcotest.(check int) (what ^ ": .bigdata prefix stays empty") 0
              (Bytes.length big.Section.data);
            Alcotest.(check int) (what ^ ": .bigdata keeps its tail")
              (Section.size (Binary.section_exn bin ".bigdata"))
              (Section.size big);
            Alcotest.(check bool) (what ^ ": .bigdata is 40 MiB") true
              (Section.size big >= 40 * 1024 * 1024);
            Alcotest.(check bool) (what ^ ": .text copied") true
              (data ".text" out != data ".text" bin)
          end)
        approaches)
    ((Arch.Ppc64le, gcc)
    :: List.map (fun arch -> (arch, List.hd (Spec.benchmarks arch))) Arch.all)

(* A rewritten image can be rewritten again. On ppc64le the 16-byte long
   trampoline at the 8-byte [_start] spills past the function's end, so
   the re-parse sees [_start]'s last block fall through out of the
   function to an address with no relocated block: that edge must jump to
   the original code, not to a label nothing defines. *)
let test_rewrite_rewritten () =
  let module Spec = Icfg_workloads.Spec_suite in
  List.iter
    (fun name ->
      let bench =
        List.find
          (fun (b : Spec.bench) -> b.Spec.bench_name = name)
          (Spec.benchmarks Arch.Ppc64le)
      in
      let once =
        (Runner.rewrite (fst (Spec.compile Arch.Ppc64le bench)))
          .Rewriter.rw_binary
      in
      let orig = Runner.run_original once in
      List.iter
        (fun mode ->
          let what = Printf.sprintf "%s, then %s" name (Mode.name mode) in
          let options = { Rewriter.default_options with Rewriter.mode } in
          let twice = Runner.rewrite ~options once in
          check_verified what ~orig (Runner.run_rewritten twice))
        [ Mode.Jt; Mode.Func_ptr ])
    [ "602.gcc_s"; "621.wrf_s" ]

let suite =
  [
    ( "rewriter:modes",
      [
        Alcotest.test_case "dir matrix" `Quick (test_mode_matrix Mode.Dir false);
        Alcotest.test_case "jt matrix" `Quick (test_mode_matrix Mode.Jt false);
        Alcotest.test_case "func-ptr matrix" `Quick
          (test_mode_matrix Mode.Func_ptr false);
        Alcotest.test_case "PIE matrix" `Quick test_pie_matrix;
      ] );
    ( "rewriter:unwinding",
      [
        Alcotest.test_case "go rewriting" `Quick test_go_rewriting;
        Alcotest.test_case "go panics without RA translation" `Quick
          test_go_without_ra_translation_fails;
        Alcotest.test_case "exceptions fail without RA translation" `Quick
          test_exceptions_without_ra_translation_fail;
        Alcotest.test_case "call emulation supports exceptions" `Quick
          test_call_emulation_supports_exceptions;
      ] );
    ( "rewriter:baseline-config",
      [ Alcotest.test_case "srbi matrix" `Quick test_srbi_matrix ] );
    ( "rewriter:partial",
      [
        Alcotest.test_case "partial instrumentation" `Quick
          test_partial_instrumentation;
        Alcotest.test_case "uninstrumentable skipped" `Quick
          test_uninstrumentable_function_skipped;
      ] );
    ( "rewriter:func-ptr",
      [
        Alcotest.test_case "adjusted pointer (Listing 1)" `Quick
          test_adjusted_pointer_rewriting;
      ] );
    ( "rewriter:reorder",
      [
        Alcotest.test_case "reversal roundtrips" `Quick test_reorder_roundtrips;
      ] );
    ( "rewriter:regressions",
      [
        Alcotest.test_case "mid-block try + indirect call" `Quick
          test_midblock_try_regression;
        Alcotest.test_case "ppc64le long trampolines" `Quick
          test_ppc_long_trampolines;
        Alcotest.test_case "no-overwrite mode" `Quick test_no_overwrite_mode;
        Alcotest.test_case "function-entry granularity" `Quick
          test_func_entry_granularity;
        Alcotest.test_case "sparse placement (4.2)" `Quick test_sparse_placement;
        Alcotest.test_case "ppc64le output rewritten again" `Quick
          test_rewrite_rewritten;
      ] );
    ( "rewriter:properties",
      [
        Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
        Alcotest.test_case "cfl shrinks with mode" `Quick
          test_cfl_fewer_with_stronger_modes;
        Alcotest.test_case "bounce reduction" `Quick test_bounce_reduction;
        Alcotest.test_case "ra map and sections" `Quick test_ra_map_present;
        Alcotest.test_case "output shares unwritten sections" `Quick
          test_output_shares_unwritten_sections;
      ] );
  ]
