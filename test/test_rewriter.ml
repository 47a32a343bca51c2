(* End-to-end rewriting tests: the paper's strong correctness test.

   Every program is compiled, parsed, rewritten (original code bytes
   overwritten with illegal instructions, trampolines installed), and
   executed. The rewritten run must (a) halt, (b) produce identical
   observable output, and (c) execute every basic block exactly as many
   times as a ground-truth profile of the original binary reports. *)

open Icfg_isa
open Icfg_codegen
open Icfg_analysis
open Icfg_core
module Binary = Icfg_obj.Binary
module Vm = Icfg_runtime.Vm
module Runtime_lib = Icfg_runtime.Runtime_lib

let load_base = 0x20000000

let base_config pie =
  let c = Vm.default_config () in
  if pie then { c with Vm.load_base } else c

(* Ground-truth block profile of the original binary. *)
let profile_original ?(pie = false) bin (parse : Parse.t) =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun fa ->
      List.iter
        (fun b -> Hashtbl.replace tbl b.Cfg.b_start 0)
        fa.Parse.fa_cfg.Cfg.blocks)
    parse.Parse.funcs;
  let config = { (base_config pie) with Vm.profile = Some tbl } in
  let r = Vm.run ~config ~routines:(Runtime_lib.standard ()) bin in
  (r, tbl)

type roundtrip = {
  orig : Vm.result;
  rewritten : Vm.result;
  counters : (int, int) Hashtbl.t;
  profile : (int, int) Hashtbl.t;
  rw : Rewriter.t;
  parse : Parse.t;
}

let roundtrip ?(pie = false) ?fm ?(options = Rewriter.default_options) arch prog
    =
  let bin, _ = Compile.compile ~pie arch prog in
  let parse = Parse.parse ?fm bin in
  let rw = Rewriter.rewrite ~options parse in
  let orig, profile = profile_original ~pie bin parse in
  let counters = Hashtbl.create 256 in
  let config = Rewriter.vm_config_for rw (base_config pie) in
  let rewritten =
    Vm.run ~config ~routines:(Rewriter.routines_for rw ~counters) rw.rw_binary
  in
  { orig; rewritten; counters; profile; rw; parse }

let check_outcome name (r : Vm.result) =
  match r.Vm.outcome with
  | Vm.Halted -> ()
  | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" name m

let check_roundtrip name rt =
  check_outcome (name ^ " (original)") rt.orig;
  check_outcome (name ^ " (rewritten)") rt.rewritten;
  Alcotest.(check (list int))
    (name ^ " output") rt.orig.Vm.output rt.rewritten.Vm.output

(* With the counting payload: the rewritten run's per-block counters must
   match the ground-truth profile for every block of every instrumented
   function (instrumentation integrity, section 4.1). *)
let check_counts name rt =
  let instrumented fa =
    fa.Parse.fa_instrumentable
    &&
    match rt.rw.Rewriter.rw_stats.Rewriter.s_funcs_instrumented with _ -> true
  in
  List.iter
    (fun fa ->
      if instrumented fa then
        List.iter
          (fun b ->
            let want =
              Option.value ~default:0 (Hashtbl.find_opt rt.profile b.Cfg.b_start)
            in
            let got =
              Option.value ~default:0 (Hashtbl.find_opt rt.counters b.Cfg.b_start)
            in
            if want <> got then
              Alcotest.failf "%s: block 0x%x executed %d times, counted %d"
                name b.Cfg.b_start want got)
          fa.Parse.fa_cfg.Cfg.blocks)
    rt.parse.Parse.funcs

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
          let rt = roundtrip ~pie ~options:(counting_options mode) arch prog in
          check_roundtrip name rt;
          check_counts name rt)
        all_progs)
    Arch.all

let test_go_rewriting () =
  List.iter
    (fun arch ->
      List.iter
        (fun mode ->
          let name = Printf.sprintf "%s/go/%s" (Arch.name arch) (Mode.name mode) in
          let rt =
            roundtrip ~options:(counting_options mode) arch Test_codegen.go_prog
          in
          check_roundtrip name rt;
          check_counts name rt;
          Alcotest.(check bool) (name ^ " go hook") true rt.rw.Rewriter.rw_go_hook)
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
      let rt = roundtrip ~options arch Test_codegen.go_prog in
      match rt.rewritten.Vm.outcome with
      | Vm.Crashed _ -> ()
      | Vm.Halted ->
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
      let rt = roundtrip ~options arch Test_codegen.prog_exceptions in
      match rt.rewritten.Vm.outcome with
      | Vm.Crashed _ -> ()
      | Vm.Halted ->
          (* Unwinding by luck is impossible: relocated PCs have no FDEs. *)
          Alcotest.failf "%s: expected unwind failure" (Arch.name arch))
    Arch.all

let test_call_emulation_supports_exceptions () =
  (* SRBI-style call emulation keeps original return addresses on the
     stack, so unwinding works without RA translation. *)
  List.iter
    (fun arch ->
      let options = Rewriter.srbi_like Rewriter.P_count in
      let rt = roundtrip ~options arch Test_codegen.prog_exceptions in
      check_roundtrip (Arch.name arch ^ "/srbi/exceptions") rt;
      check_counts (Arch.name arch ^ "/srbi/exceptions") rt)
    Arch.all

let test_srbi_matrix () =
  List.iter
    (fun arch ->
      List.iter
        (fun (pname, prog) ->
          let name = Printf.sprintf "%s/srbi/%s" (Arch.name arch) pname in
          let rt =
            roundtrip ~fm:Failure_model.srbi
              ~options:(Rewriter.srbi_like Rewriter.P_count) arch prog
          in
          check_roundtrip name rt;
          check_counts name rt)
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
      let rt =
        roundtrip ~options arch (Test_codegen.switch_prog Ir.Jt_plain)
      in
      check_roundtrip (Arch.name arch ^ "/partial") rt;
      Alcotest.(check int)
        (Arch.name arch ^ " instrumented exactly one")
        1 rt.rw.Rewriter.rw_stats.Rewriter.s_funcs_instrumented;
      (* counters exist only for classify's blocks *)
      let classify = Option.get (Parse.func rt.parse "classify") in
      Hashtbl.iter
        (fun blk _ ->
          Alcotest.(check bool) "counter in classify" true
            (blk >= classify.Parse.fa_sym.Icfg_obj.Symbol.addr
            && blk
               < classify.Parse.fa_sym.Icfg_obj.Symbol.addr
                 + classify.Parse.fa_sym.Icfg_obj.Symbol.size))
        rt.counters)
    Arch.all

let test_uninstrumentable_function_skipped () =
  (* A function with an unresolvable jump table is left in place; everything
     else is still rewritten and the program still works. *)
  List.iter
    (fun arch ->
      let rt =
        roundtrip ~options:(counting_options Mode.Jt) arch
          (Test_codegen.switch_prog Ir.Jt_data_table)
      in
      check_roundtrip (Arch.name arch ^ "/data-table") rt;
      let stats = rt.rw.Rewriter.rw_stats in
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
      let rt =
        roundtrip ~options:(counting_options Mode.Func_ptr) arch
          (Test_analysis.go_arith_prog adj)
      in
      check_roundtrip (Arch.name arch ^ "/goarith") rt;
      check_counts (Arch.name arch ^ "/goarith") rt;
      Alcotest.(check bool)
        (Arch.name arch ^ " rewrote slots")
        true
        (rt.rw.Rewriter.rw_stats.Rewriter.s_rewritten_slots >= 1))
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
              let rt =
                roundtrip ~pie:true ~options:(counting_options mode) arch prog
              in
              check_roundtrip name rt;
              check_counts name rt)
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
      let rt =
        roundtrip ~options:(counting_options Mode.Jt) arch
          (Test_codegen.switch_prog Ir.Jt_plain)
      in
      let s = rt.rw.Rewriter.rw_stats in
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
        let rt =
          roundtrip ~options:(counting_options mode) arch
            (Test_codegen.switch_prog Ir.Jt_plain)
        in
        rt.rw.Rewriter.rw_stats.Rewriter.s_cfl_blocks
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
        let rt =
          roundtrip
            ~options:{ (counting_options mode) with Rewriter.payload = P_empty }
            arch
            (Test_codegen.switch_prog Ir.Jt_plain)
        in
        check_roundtrip (Arch.name arch ^ "/bounce") rt;
        rt.rewritten.Vm.cycles
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
      let rt =
        roundtrip ~options:(counting_options Mode.Jt) arch
          Test_codegen.prog_exceptions
      in
      Alcotest.(check bool) "ra map nonempty" true
        (Runtime_lib.Ra_map.size rt.rw.Rewriter.rw_ra_map > 0);
      Alcotest.(check bool) ".ra_map section" true
        (Binary.section rt.rw.Rewriter.rw_binary ".ra_map" <> None);
      Alcotest.(check bool) ".instr section" true
        (Binary.section rt.rw.Rewriter.rw_binary ".instr" <> None);
      (* old dynamic sections renamed *)
      Alcotest.(check bool) "dynsym.old" true
        (Binary.section rt.rw.Rewriter.rw_binary ".dynsym.old" <> None))
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
              let rt = roundtrip ~options arch prog in
              check_roundtrip name rt;
              check_counts name rt)
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
      let rt = roundtrip ~options:(counting_options Mode.Jt) arch midblock_try_prog in
      check_roundtrip (Arch.name arch ^ "/midblock-try") rt;
      check_counts (Arch.name arch ^ "/midblock-try") rt;
      (* and SRBI's unemulated indirect calls make exactly this crash on
         x86-64 (the Dyninst-10.2 defect the paper reports) *)
      if arch = Arch.X86_64 then
        let rt' =
          roundtrip ~options:(Rewriter.srbi_like Rewriter.P_count) arch
            midblock_try_prog
        in
        match rt'.rewritten.Vm.outcome with
        | Vm.Crashed _ -> ()
        | Vm.Halted -> Alcotest.fail "srbi should crash on this program")
    Arch.all

(* ppc64le with a large working set: the relocated area is beyond the
   32 MiB short-branch range, so placement must use the 4-instruction long
   sequences (and save/restore where no register is dead) — without traps. *)
let test_ppc_long_trampolines () =
  let prog = Test_codegen.switch_prog Ir.Jt_plain in
  let bin, _ =
    Icfg_codegen.Compile.compile ~bulk_data:(48 * 1024 * 1024) Arch.Ppc64le prog
  in
  let parse = Parse.parse bin in
  let rw =
    Rewriter.rewrite
      ~options:{ Rewriter.default_options with Rewriter.payload = Rewriter.P_count }
      parse
  in
  let s = rw.Rewriter.rw_stats in
  Alcotest.(check bool) "used long trampolines" true (s.Rewriter.s_long_trampolines > 0);
  Alcotest.(check int) "no traps" 0 s.Rewriter.s_trap_trampolines;
  (* and the rewritten binary still runs correctly *)
  let counters = Hashtbl.create 16 in
  let config = Rewriter.vm_config_for rw (Vm.default_config ()) in
  let r =
    Vm.run ~config ~routines:(Rewriter.routines_for rw ~counters) rw.Rewriter.rw_binary
  in
  let orig = Vm.run ~routines:(Runtime_lib.standard ()) bin in
  Alcotest.(check bool) "halted" true (r.Vm.outcome = Vm.Halted);
  Alcotest.(check (list int)) "output" orig.Vm.output r.Vm.output

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
      let rt = roundtrip ~options arch Test_codegen.prog_recursion in
      check_roundtrip (Arch.name arch ^ "/entry-granularity") rt;
      let fib = Option.get (Parse.func rt.parse "fib") in
      let entry = fib.Parse.fa_sym.Icfg_obj.Symbol.addr in
      (* fib 10 makes 177 calls to fib *)
      Alcotest.(check (option int))
        (Arch.name arch ^ " fib called 177 times")
        (Some 177)
        (Hashtbl.find_opt rt.counters entry);
      (* only entry blocks are counted *)
      Hashtbl.iter
        (fun blk _ ->
          Alcotest.(check bool) "counter at a function entry" true
            (match Icfg_obj.Binary.symbol_at rt.rw.Rewriter.rw_binary blk with
            | Some s -> s.Icfg_obj.Symbol.addr = blk
            | None -> false))
        rt.counters)
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
          let sparse = roundtrip ~options:sparse_opts arch prog in
          check_roundtrip name sparse;
          let dense = roundtrip ~options:dense_opts arch prog in
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
          List.iter
            (fun fa ->
              if fa.Parse.fa_instrumentable then
                let entry = fa.Parse.fa_sym.Icfg_obj.Symbol.addr in
                Alcotest.(check (option int))
                  (Printf.sprintf "%s entry 0x%x" name entry)
                  (Hashtbl.find_opt dense.counters entry)
                  (Hashtbl.find_opt sparse.counters entry))
            sparse.parse.Parse.funcs)
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

(* frdwarf-style unwinding (sections 2.3/6): RA translation is agnostic to
   the unwinder implementation, and the compiled recipes are cheaper. *)
let test_compiled_unwind_compat () =
  let arch = Arch.X86_64 in
  let bin, _ = Icfg_codegen.Compile.compile arch Test_codegen.prog_exceptions in
  let parse = Parse.parse bin in
  let rw = Rewriter.rewrite ~options:(counting_options Mode.Jt) parse in
  let run compiled =
    let config =
      Rewriter.vm_config_for rw
        { (Vm.default_config ()) with Vm.compiled_unwind = compiled }
    in
    Vm.run ~config
      ~routines:(Rewriter.routines_for rw ~counters:(Hashtbl.create 4))
      rw.Rewriter.rw_binary
  in
  let dwarf = run false and fast = run true in
  Alcotest.(check bool) "both halt" true
    (dwarf.Vm.outcome = Vm.Halted && fast.Vm.outcome = Vm.Halted);
  Alcotest.(check (list int)) "same output" dwarf.Vm.output fast.Vm.output;
  Alcotest.(check bool) "same unwind steps" true
    (dwarf.Vm.unwind_steps = fast.Vm.unwind_steps && dwarf.Vm.unwind_steps > 0);
  Alcotest.(check bool)
    (Printf.sprintf "compiled unwinding cheaper (%d < %d)" fast.Vm.cycles
       dwarf.Vm.cycles)
    true (fast.Vm.cycles < dwarf.Vm.cycles)

(* overwrite_original = false leaves original bytes intact: the rewritten
   binary must still behave identically (trampolines shadow the entries). *)
let test_no_overwrite_mode () =
  List.iter
    (fun arch ->
      let options =
        { (counting_options Mode.Jt) with Rewriter.overwrite_original = false }
      in
      let rt = roundtrip ~options arch (Test_codegen.switch_prog Ir.Jt_plain) in
      check_roundtrip (Arch.name arch ^ "/no-overwrite") rt)
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
        Alcotest.test_case "frdwarf-style unwinding" `Quick
          test_compiled_unwind_compat;
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
