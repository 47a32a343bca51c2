(* Analysis-layer tests: CFG construction, jump-table slicing vs. compiler
   ground truth, tail-call classification, function-pointer discovery, and
   liveness. *)

open Icfg_isa
open Icfg_codegen
open Icfg_analysis
module Binary = Icfg_obj.Binary

let compile ?pie arch prog = Compile.compile ?pie arch prog

(* Reuse the programs from the codegen tests. *)
let switch_prog = Test_codegen.switch_prog
let prog_fptr = Test_codegen.prog_fptr
let prog_tailcall = Test_codegen.prog_tailcall

let on_all_arches f = List.iter f Arch.all

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cfg_basic () =
  on_all_arches (fun arch ->
      let bin, _ = compile arch Test_codegen.prog_loop in
      let sym = Option.get (Binary.symbol bin "main") in
      let cfg = Cfg.build bin sym in
      Alcotest.(check bool)
        (Arch.name arch ^ " has blocks")
        true
        (List.length cfg.Cfg.blocks >= 3);
      (* entry block exists *)
      let entry = Cfg.entry_block cfg in
      Alcotest.(check int) "entry start" sym.Icfg_obj.Symbol.addr entry.Cfg.b_start;
      (* a loop means some block has a backward edge *)
      let has_back_edge =
        List.exists
          (fun b ->
            List.exists (fun (d, _) -> d < b.Cfg.b_start) (Cfg.successors cfg b.Cfg.b_start))
          cfg.Cfg.blocks
      in
      Alcotest.(check bool) "back edge" true has_back_edge;
      (* no gaps in a fully-direct function *)
      Alcotest.(check (list (pair int int))) "no gaps" [] (Cfg.gaps cfg))

let test_cfg_blocks_partition () =
  (* Blocks must not overlap and each must end after it starts. *)
  on_all_arches (fun arch ->
      let bin, _ = compile arch (switch_prog Ir.Jt_plain) in
      List.iter
        (fun sym ->
          let cfg = Cfg.build bin sym in
          let rec check = function
            | a :: (b : Cfg.block) :: rest ->
                Alcotest.(check bool) "ordered" true (a.Cfg.b_end <= b.Cfg.b_start);
                check (b :: rest)
            | [ b ] -> Alcotest.(check bool) "nonempty" true (b.Cfg.b_end > b.Cfg.b_start)
            | [] -> ()
          in
          check cfg.Cfg.blocks;
          (* [Rewriter.cfl_causes] asks [succs] whether an address starts
             a block: its keys are exactly the block starts. *)
          Alcotest.(check (list int)) "succs keyed by block starts"
            (List.map (fun b -> b.Cfg.b_start) cfg.Cfg.blocks)
            (List.sort compare
               (Hashtbl.fold (fun a _ acc -> a :: acc) cfg.Cfg.succs [])))
        (Binary.func_symbols bin))

let test_cfg_call_edges () =
  on_all_arches (fun arch ->
      let bin, _ = compile arch Test_codegen.prog_calls in
      let sym = Option.get (Binary.symbol bin "main") in
      let cfg = Cfg.build bin sym in
      let add3 = (Option.get (Binary.symbol bin "add3")).Icfg_obj.Symbol.addr in
      let callees = List.filter_map snd cfg.Cfg.calls in
      Alcotest.(check bool)
        (Arch.name arch ^ " calls add3")
        true
        (List.mem add3 callees))

let test_cfg_skips_embedded_table () =
  (* On ppc64le the jump table is embedded in .text; traversal must not
     decode it as code. *)
  let bin, dbg = compile Arch.Ppc64le (switch_prog Ir.Jt_plain) in
  let sym = Option.get (Binary.symbol bin "classify") in
  let cfg = Cfg.build bin sym in
  let jt = List.hd dbg.Debug.jump_tables in
  let table_lo = jt.Debug.jt_table_addr in
  let table_hi = table_lo + (8 * jt.Debug.jt_count) in
  List.iter
    (fun b ->
      List.iter
        (fun (a, _, l) ->
          Alcotest.(check bool) "no insn inside table" false
            (a >= table_lo && a + l <= table_hi))
        b.Cfg.b_insns)
    cfg.Cfg.blocks;
  (* Without jump-table edges, the case bodies are gaps. *)
  Alcotest.(check bool) "has gaps" true (Cfg.gaps cfg <> [])

(* ------------------------------------------------------------------ *)
(* Jump tables                                                         *)
(* ------------------------------------------------------------------ *)

let resolve_tables ?(fm = Failure_model.ours) arch style =
  let bin, dbg = compile arch (switch_prog style) in
  let p = Parse.parse ~fm bin in
  (bin, dbg, p)

let test_jt_plain_resolves () =
  on_all_arches (fun arch ->
      let _, dbg, p = resolve_tables arch Ir.Jt_plain in
      let fa = Option.get (Parse.func p "classify") in
      Alcotest.(check bool) (Arch.name arch ^ " instrumentable") true fa.Parse.fa_instrumentable;
      match (fa.Parse.fa_tables, dbg.Debug.jump_tables) with
      | [ t ], [ g ] ->
          Alcotest.(check int) "jump addr" g.Debug.jt_jump_addr t.Jump_table.t_jump;
          Alcotest.(check int) "table addr" g.Debug.jt_table_addr t.Jump_table.t_table;
          Alcotest.(check int) "count" g.Debug.jt_count t.Jump_table.t_count;
          Alcotest.(check (list int))
            "targets" g.Debug.jt_targets t.Jump_table.t_targets;
          Alcotest.(check bool) "width" true (g.Debug.jt_entry_width = t.Jump_table.t_width);
          Alcotest.(check bool)
            "x86 base tied"
            (arch = Arch.X86_64)
            t.Jump_table.t_base_tied
      | ts, gs ->
          Alcotest.failf "%s: %d resolved vs %d ground truth" (Arch.name arch)
            (List.length ts) (List.length gs))

let test_jt_spilled_ours_vs_srbi () =
  on_all_arches (fun arch ->
      (* Ours tracks the spill and resolves. *)
      let _, dbg, p = resolve_tables arch Ir.Jt_spilled_base in
      let fa = Option.get (Parse.func p "classify") in
      Alcotest.(check bool) (Arch.name arch ^ " ours resolves") true
        fa.Parse.fa_instrumentable;
      (match (fa.Parse.fa_tables, dbg.Debug.jump_tables) with
      | [ t ], [ g ] ->
          Alcotest.(check (list int)) "targets" g.Debug.jt_targets t.Jump_table.t_targets
      | _ -> Alcotest.fail "expected one table");
      (* The SRBI-era model cannot. *)
      let _, _, p' = resolve_tables ~fm:Failure_model.srbi arch Ir.Jt_spilled_base in
      let fa' = Option.get (Parse.func p' "classify") in
      Alcotest.(check bool)
        (Arch.name arch ^ " srbi fails")
        false fa'.Parse.fa_instrumentable)

let test_jt_data_table_unresolvable () =
  on_all_arches (fun arch ->
      let _, _, p = resolve_tables arch Ir.Jt_data_table in
      let fa = Option.get (Parse.func p "classify") in
      Alcotest.(check bool)
        (Arch.name arch ^ " uninstrumentable")
        false fa.Parse.fa_instrumentable;
      Alcotest.(check bool) "reports writable table" true
        (match fa.Parse.fa_fail_reason with
        | Some r -> contains r "writable" || contains r "gaps"
        | None -> false))

let test_jt_bound_under () =
  on_all_arches (fun arch ->
      let fm =
        Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2)
      in
      let bin, dbg, _ = resolve_tables arch Ir.Jt_plain in
      ignore bin;
      let bin2, _ = compile arch (switch_prog Ir.Jt_plain) in
      let p = Parse.parse ~fm bin2 in
      let fa = Option.get (Parse.func p "classify") in
      match fa.Parse.fa_tables with
      | [ t ] ->
          let g = List.hd dbg.Debug.jump_tables in
          Alcotest.(check int)
            (Arch.name arch ^ " under-approximated")
            (g.Debug.jt_count - 2) t.Jump_table.t_count
      | _ -> Alcotest.fail "expected one table")

let test_jt_bound_over_trimmed () =
  (* Over-approximation extends the table, but extension stops at the next
     known data boundary and infeasible targets are dropped. *)
  on_all_arches (fun arch ->
      let fm =
        Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 64)
      in
      let bin, dbg = compile arch (switch_prog Ir.Jt_plain) in
      let p = Parse.parse ~fm bin in
      let fa = Option.get (Parse.func p "classify") in
      match fa.Parse.fa_tables with
      | [ t ] ->
          let g = List.hd dbg.Debug.jump_tables in
          Alcotest.(check bool)
            (Arch.name arch ^ " at least truth")
            true
            (t.Jump_table.t_count >= g.Debug.jt_count);
          (* every ground-truth target must be covered *)
          List.iter
            (fun gt ->
              Alcotest.(check bool) "covers truth" true
                (List.mem gt t.Jump_table.t_targets))
            g.Debug.jt_targets
      | _ -> Alcotest.fail "expected one table")

let big_switch_prog n =
  Ir.program ~name:"bigswitch" ~main:"main"
    [
      Ir.func "classify" [ "x" ]
        [
          Ir.Switch
            ( Ir.Jt_plain,
              Bin (Band, Var "x", Int (n - 1)),
              Array.init n (fun k -> [ Ir.Return (Int (100 * (k + 1))) ]),
              [ Ir.Return (Int 0) ] );
        ];
      Ir.func "main" []
        [
          Ir.For
            ( "i",
              0,
              n + 2,
              [
                Ir.Call (Some "r", Direct "classify", [ Var "i" ]);
                Ir.Print (Var "r");
              ] );
          Ir.Return (Int 0);
        ];
    ]

let test_jt_aarch64_wide_entries () =
  (* A switch with many cases exceeds the 1-byte entry span, so the
     compiler emits 2-byte entries; the analysis must recover the width. *)
  let bin, dbg = compile Arch.Aarch64 (big_switch_prog 32) in
  let g = List.hd dbg.Debug.jump_tables in
  Alcotest.(check bool) "compiler chose W16" true
    (g.Debug.jt_entry_width = Insn.W16);
  let p = Parse.parse bin in
  let fa = Option.get (Parse.func p "classify") in
  match fa.Parse.fa_tables with
  | [ t ] ->
      Alcotest.(check bool) "width recovered" true (t.Jump_table.t_width = Insn.W16);
      Alcotest.(check int) "count" 32 t.Jump_table.t_count;
      Alcotest.(check (list int)) "targets" g.Debug.jt_targets t.Jump_table.t_targets
  | _ -> Alcotest.fail "one table"

let test_jt_slots_positional () =
  (* The positional slot list must line up with raw table entries: slot i
     corresponds to runtime index i (clone index-compatibility). *)
  on_all_arches (fun arch ->
      let bin, dbg = compile arch (switch_prog Ir.Jt_plain) in
      let p = Parse.parse bin in
      let fa = Option.get (Parse.func p "classify") in
      let t = List.hd fa.Parse.fa_tables in
      let g = List.hd dbg.Debug.jump_tables in
      Alcotest.(check int)
        (Arch.name arch ^ " slot count")
        g.Debug.jt_count
        (List.length t.Jump_table.t_slots);
      List.iteri
        (fun i slot ->
          match slot with
          | Some target ->
              Alcotest.(check int)
                (Printf.sprintf "%s slot %d" (Arch.name arch) i)
                (List.nth g.Debug.jt_targets i)
                target
          | None -> Alcotest.failf "slot %d infeasible" i)
        t.Jump_table.t_slots)

let test_known_data_trims_adjacent_tables () =
  (* Two adjacent tables in .rodata: over-approximating the first must stop
     at the second table's start (Assumption 2). *)
  let prog =
    Ir.program ~name:"twotables" ~main:"main"
      [
        Ir.func "c1" [ "x" ]
          [
            Ir.Switch
              ( Ir.Jt_plain,
                Bin (Band, Var "x", Int 3),
                Array.init 4 (fun k -> [ Ir.Return (Int k) ]),
                [ Ir.Return (Int 9) ] );
          ];
        Ir.func "c2" [ "x" ]
          [
            Ir.Switch
              ( Ir.Jt_plain,
                Bin (Band, Var "x", Int 3),
                Array.init 4 (fun k -> [ Ir.Return (Int (k * 2)) ]),
                [ Ir.Return (Int 9) ] );
          ];
        Ir.func "main" []
          [
            Ir.Call (Some "a", Direct "c1", [ Int 2 ]);
            Ir.Call (Some "b", Direct "c2", [ Int 3 ]);
            Ir.Print (Bin (Badd, Var "a", Var "b"));
            Ir.Return (Int 0);
          ];
      ]
  in
  (* x86: both tables in .rodata back to back *)
  let bin, dbg = compile Arch.X86_64 prog in
  let fm =
    Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 64)
  in
  let p = Parse.parse ~fm bin in
  let fa1 = Option.get (Parse.func p "c1") in
  let t1 = List.hd fa1.Parse.fa_tables in
  let g1 =
    List.find (fun g -> g.Debug.jt_func = "c1") dbg.Debug.jump_tables
  in
  let g2 =
    List.find (fun g -> g.Debug.jt_func = "c2") dbg.Debug.jump_tables
  in
  if g2.Debug.jt_table_addr > g1.Debug.jt_table_addr then
    (* extension capped before the second table *)
    Alcotest.(check bool) "capped at next table" true
      (t1.Jump_table.t_table
       + (t1.Jump_table.t_count * Insn.width_bytes t1.Jump_table.t_width)
      <= g2.Debug.jt_table_addr)

let test_guard_bound_matches_truth () =
  on_all_arches (fun arch ->
      let bin, dbg = compile arch (big_switch_prog 16) in
      let p = Parse.parse bin in
      let fa = Option.get (Parse.func p "classify") in
      let t = List.hd fa.Parse.fa_tables in
      let g = List.hd dbg.Debug.jump_tables in
      Alcotest.(check int) (Arch.name arch) g.Debug.jt_count t.Jump_table.t_count)

(* ------------------------------------------------------------------ *)
(* Tail calls                                                          *)
(* ------------------------------------------------------------------ *)

let test_indirect_tail_call_heuristics () =
  on_all_arches (fun arch ->
      let bin, _ = compile arch prog_tailcall in
      (* Ours: the layout heuristic accepts the frame-less function. *)
      let p = Parse.parse bin in
      let fa = Option.get (Parse.func p "indirect_tail") in
      Alcotest.(check bool) (Arch.name arch ^ " ours ok") true fa.Parse.fa_instrumentable;
      Alcotest.(check int) "classified tail jumps" 1
        (List.length fa.Parse.fa_tail_jumps);
      (* SRBI: no frame tear-down before the jump (frameless function), so
         the function is marked uninstrumentable. *)
      let p' = Parse.parse ~fm:Failure_model.srbi bin in
      let fa' = Option.get (Parse.func p' "indirect_tail") in
      Alcotest.(check bool)
        (Arch.name arch ^ " srbi fails")
        false fa'.Parse.fa_instrumentable)

(* ------------------------------------------------------------------ *)
(* Function pointers                                                   *)
(* ------------------------------------------------------------------ *)

let test_fptr_discovery () =
  on_all_arches (fun arch ->
      List.iter
        (fun pie ->
          let bin, dbg = compile ~pie arch prog_fptr in
          let p = Parse.parse bin in
          let truth_slots =
            List.filter_map
              (function
                | Debug.Fp_slot { slot; target; _ } -> Some (slot, target)
                | Debug.Fp_mater _ -> None)
              dbg.Debug.fptrs
          in
          let found_slots =
            List.filter_map
              (function
                | Func_ptr.Fp_slot { slot; target; _ } -> Some (slot, target)
                | _ -> None)
              p.Parse.fptrs
          in
          List.iter
            (fun (s, t) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s pie=%b finds slot 0x%x" (Arch.name arch) pie s)
                true
                (List.mem (s, t) found_slots))
            truth_slots;
          (* code materialization found *)
          let maters =
            List.filter
              (function Func_ptr.Fp_mater _ -> true | _ -> false)
              p.Parse.fptrs
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s pie=%b mater" (Arch.name arch) pie)
            true
            (List.length maters >= 1))
        [ false; true ])

let go_arith_prog adj =
  Ir.program ~name:"goarith"
    ~data:[ Ir.Word_addr ("g1", "goexit"); Ir.Word ("g2", 0) ]
    ~main:"main"
    [
      Ir.func "goexit" [] [ Ir.Nops 1; Ir.Print (Int 77); Ir.Return (Int 0) ];
      Ir.func "main" []
        [
          (* The Go idiom of Listing 1: load pointer, add, store. *)
          Ir.Set (Lglobal "g2", Bin (Badd, Global "g1", Int adj));
          Ir.Call (None, Via_ptr (Global "g2"), []);
          Ir.Return (Int 0);
        ];
    ]

let test_fptr_adjusted () =
  on_all_arches (fun arch ->
      let adj = if arch = Arch.X86_64 then 1 else 4 in
      let bin, _ = compile arch (go_arith_prog adj) in
      let p = Parse.parse bin in
      let adjusted =
        List.filter_map
          (function
            | Func_ptr.Fp_adjusted { target; adjust; _ } -> Some (target, adjust)
            | _ -> None)
          p.Parse.fptrs
      in
      let goexit = (Option.get (Binary.symbol bin "goexit")).Icfg_obj.Symbol.addr in
      Alcotest.(check bool)
        (Arch.name arch ^ " finds adjusted pointer")
        true
        (List.mem (goexit, adj) adjusted);
      Alcotest.(check (list int))
        (Arch.name arch ^ " derived targets")
        [ goexit + adj ]
        p.Parse.pointer_targets;
      (* The derived target must exist as a block leader in goexit's CFG. *)
      let fa = Option.get (Parse.func p "goexit") in
      Alcotest.(check bool)
        "block split at goexit+adj" true
        (Cfg.block_at fa.Parse.fa_cfg (goexit + adj) <> None))

let test_fptr_no_forward_slice_baseline () =
  on_all_arches (fun arch ->
      let adj = if arch = Arch.X86_64 then 1 else 4 in
      let bin, _ = compile arch (go_arith_prog adj) in
      let p = Parse.parse ~fm:Failure_model.srbi bin in
      let adjusted =
        List.filter (function Func_ptr.Fp_adjusted _ -> true | _ -> false) p.Parse.fptrs
      in
      Alcotest.(check int) (Arch.name arch ^ " baseline misses it") 0
        (List.length adjusted))

(* Listing 1's adjusted store moved into case 1 of a jump-table switch.
   Pass 1's CFG of [main] has no table edges, so only the second pointer
   scan reaches the store, after every CFG was built. That scan's target
   goexit+adj must still become a block leader: without one, dir and jt
   mode leave no landing for the adjusted call, and their outputs run
   into illegal bytes. *)
let go_switch_prog adj =
  Ir.program ~name:"goswitch"
    ~data:
      [ Ir.Word_addr ("g1", "goexit"); Ir.Word ("g2", 0); Ir.Word ("sel", 1) ]
    ~main:"main"
    [
      Ir.func "goexit" [] [ Ir.Nops 1; Ir.Print (Int 77); Ir.Return (Int 0) ];
      Ir.func "main" []
        [
          Ir.Switch
            ( Ir.Jt_plain,
              Global "sel",
              [|
                [ Ir.Print (Int 0) ];
                [ Ir.Set (Lglobal "g2", Bin (Badd, Global "g1", Int adj)) ];
                [ Ir.Print (Int 2) ];
                [ Ir.Print (Int 3) ];
              |],
              [ Ir.Print (Int 9) ] );
          Ir.Call (None, Via_ptr (Global "g2"), []);
          Ir.Return (Int 0);
        ];
    ]

let test_fptr_case_body_leader () =
  let module Runner = Icfg_harness.Runner in
  let module Rewriter = Icfg_core.Rewriter in
  on_all_arches (fun arch ->
      let adj = if arch = Arch.X86_64 then 1 else 4 in
      let bin, _ = compile arch (go_switch_prog adj) in
      let p = Parse.parse bin in
      let goexit = (Option.get (Binary.symbol bin "goexit")).Icfg_obj.Symbol.addr in
      Alcotest.(check (list int))
        (Arch.name arch ^ " derived targets")
        [ goexit + adj ]
        p.Parse.pointer_targets;
      let fa = Option.get (Parse.func p "goexit") in
      Alcotest.(check bool)
        (Arch.name arch ^ " block split at goexit+adj")
        true
        (Cfg.block_at fa.Parse.fa_cfg (goexit + adj) <> None);
      let orig = Runner.run_original bin in
      List.iter
        (fun mode ->
          let what = Arch.name arch ^ " " ^ Icfg_core.Mode.name mode in
          let options = { Rewriter.default_options with Rewriter.mode } in
          let run = Runner.run_rewritten (Runner.rewrite ~options bin) in
          match Runner.judge ~orig run with
          | Runner.Verified _ -> ()
          | Runner.Diverged -> Alcotest.failf "%s: output diverged" what
          | Runner.Crashed m -> Alcotest.failf "%s: crashed: %s" what m)
        Icfg_core.Mode.[ Dir; Jt; Func_ptr ])

(* Regression: the dedup key for materializations was (sum of prov,
   length of prov), so distinct sites with equal provenance sums — e.g.
   [0x10;0x30] vs [0x20;0x20] — collided and one rewrite site was
   silently dropped in func-ptr mode. The key is now the full sorted
   provenance list plus the target. *)
let test_fptr_dedup_collision () =
  let t = 0x1000 in
  let sites =
    [
      Func_ptr.Fp_mater { prov = [ 0x10; 0x30 ]; target = t };
      Func_ptr.Fp_mater { prov = [ 0x20; 0x20 ]; target = t };
    ]
  in
  Alcotest.(check int)
    "equal-sum sites both survive" 2
    (List.length (Func_ptr.dedup sites));
  (* Same provenance set in a different order is the same site. *)
  Alcotest.(check int)
    "true duplicate collapses" 1
    (List.length
       (Func_ptr.dedup
          [
            Func_ptr.Fp_mater { prov = [ 0x10; 0x30 ]; target = t };
            Func_ptr.Fp_mater { prov = [ 0x30; 0x10 ]; target = t };
          ]));
  (* Same provenance, different targets: distinct sites. *)
  Alcotest.(check int)
    "distinct targets survive" 2
    (List.length
       (Func_ptr.dedup
          [
            Func_ptr.Fp_mater { prov = [ 0x10 ]; target = t };
            Func_ptr.Fp_mater { prov = [ 0x10 ]; target = t + 8 };
          ]))

(* The same collision driven through [Func_ptr.analyze], with hand-built
   CFGs: two Movhi/Orlo materializations of the same function entry whose
   instruction addresses sum equal ([0x10;0x30] vs [0x20;0x20]). *)
let test_fptr_dedup_analyze () =
  let arch = Arch.X86_64 in
  let bin, _ = compile arch Test_codegen.prog_loop in
  let entry = (Option.get (Binary.symbol bin "main")).Icfg_obj.Symbol.addr in
  let hi = entry asr 16 and lo = entry land 0xffff in
  let block insns =
    let a0 = match insns with (a, _, _) :: _ -> a | [] -> 0 in
    { Cfg.b_start = a0; b_end = a0 + 8; b_insns = insns }
  in
  let cfg blocks =
    {
      Cfg.fsym = Option.get (Binary.symbol bin "main");
      blocks;
      succs = Hashtbl.create 1;
      preds = Hashtbl.create 1;
      calls = [];
      ind_jumps = [];
      tail_targets = [];
    }
  in
  let b1 =
    block [ (0x10, Insn.Movhi (Reg.r0, hi), 4); (0x30, Insn.Orlo (Reg.r0, lo), 4) ]
  in
  let b2 =
    block [ (0x20, Insn.Movhi (Reg.r1, hi), 4); (0x20, Insn.Orlo (Reg.r1, lo), 4) ]
  in
  let sites = Func_ptr.analyze bin Failure_model.ours [ cfg [ b1; b2 ] ] in
  let maters =
    List.filter_map
      (function
        | Func_ptr.Fp_mater { prov; target } when target = entry ->
            Some (List.sort compare prov)
        | _ -> None)
      sites
  in
  Alcotest.(check bool)
    "site [0x10;0x30] survives" true
    (List.mem [ 0x10; 0x30 ] maters);
  Alcotest.(check bool)
    "site [0x20;0x20] survives" true
    (List.mem [ 0x20; 0x20 ] maters)

(* Property: dedup never drops a materialization whose (provenance set,
   target) is distinct from every other site's. *)
let fptr_dedup_never_drops =
  QCheck2.Test.make ~count:200
    ~name:"func-ptr dedup keeps every distinct (prov, target)"
    QCheck2.Gen.(
      small_list (pair (small_list (int_range 0 64)) (int_range 0 8)))
    (fun pairs ->
      let pairs = List.filter (fun (p, _) -> p <> []) pairs in
      let sites =
        List.map (fun (prov, target) -> Func_ptr.Fp_mater { prov; target }) pairs
      in
      let distinct =
        List.sort_uniq compare
          (List.map (fun (p, t) -> (List.sort compare p, t)) pairs)
      in
      List.length (Func_ptr.dedup sites) = List.length distinct)

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness_dead_temps () =
  on_all_arches (fun arch ->
      let bin, _ = compile arch Test_codegen.prog_loop in
      let sym = Option.get (Binary.symbol bin "main") in
      let cfg = Cfg.build bin sym in
      let lv = Liveness.analyze cfg in
      let entry = Cfg.entry_block cfg in
      let dead = Liveness.dead_in arch lv entry.Cfg.b_start in
      (* At function entry the expression temporaries are dead. *)
      Alcotest.(check bool)
        (Arch.name arch ^ " r15 dead at entry")
        true
        (Reg.Set.mem Reg.r15 dead);
      (* The TOC register is never a scratch candidate on ppc64le. *)
      if arch = Arch.Ppc64le then
        Alcotest.(check bool) "toc not dead" false (Reg.Set.mem Reg.toc dead))

let test_liveness_conservative_on_args () =
  on_all_arches (fun arch ->
      let bin, _ = compile arch Test_codegen.prog_calls in
      let sym = Option.get (Binary.symbol bin "add3") in
      let cfg = Cfg.build bin sym in
      let lv = Liveness.analyze cfg in
      let entry = Cfg.entry_block cfg in
      let live = Liveness.live_in lv entry.Cfg.b_start in
      (* Incoming arguments are live at entry. *)
      Alcotest.(check bool) (Arch.name arch ^ " r0 live") true (Reg.Set.mem Reg.r0 live);
      Alcotest.(check bool) "r1 live" true (Reg.Set.mem Reg.r1 live))

(* One function of [pairs] [cmp r1, 0; jcc +next] pairs followed by
   [out r5; ret]: a chain of [pairs + 1] blocks in which r5 is read only
   by the last. *)
let chain_binary arch pairs =
  let enc = Encode.encode arch in
  let jcc = Insn.Jcc (Insn.Eq, Encode.length arch (Insn.Jcc (Insn.Eq, 0))) in
  let code =
    String.concat ""
      (List.concat
         (List.init pairs (fun _ -> [ enc (Insn.Cmp (Reg.r1, Insn.Imm 0)); enc jcc ]))
      @ [ enc (Insn.Out Reg.r5); enc Insn.Ret ])
  in
  let base = 0x1000 in
  let text =
    Icfg_obj.Section.make ~name:".text" ~vaddr:base ~perm:Icfg_obj.Section.r_x
      (Bytes.of_string code)
  in
  let sym =
    Icfg_obj.Symbol.make ~name:"chain" ~addr:base ~size:(String.length code)
      Icfg_obj.Symbol.Func
  in
  (Binary.make ~name:"chain" ~arch ~entry:base ~symbols:[ sym ] [ text ], sym)

let test_cfg_oversized_symbol () =
  (* A symbol whose size runs far past the code decodes the same blocks,
     and the per-offset tables stop at the end of the code. *)
  on_all_arches (fun arch ->
      let bin, sym = chain_binary arch 3 in
      let huge = { sym with Icfg_obj.Symbol.size = 1 lsl 40 } in
      let starts cfg = List.map (fun b -> (b.Cfg.b_start, b.Cfg.b_end)) cfg.Cfg.blocks in
      Alcotest.(check (list (pair int int)))
        (Arch.name arch ^ " same blocks")
        (starts (Cfg.build bin sym))
        (starts (Cfg.build bin huge)))

let test_liveness_long_chain () =
  (* An address-order sweep moves liveness back one block per sweep, so a
     sweep cap of 100 left r5 dead at the entry of a 151-block chain. *)
  on_all_arches (fun arch ->
      let bin, sym = chain_binary arch 150 in
      let cfg = Cfg.build bin sym in
      Alcotest.(check int) (Arch.name arch ^ " blocks") 151 (List.length cfg.Cfg.blocks);
      let lv = Liveness.analyze cfg in
      let entry = (Cfg.entry_block cfg).Cfg.b_start in
      Alcotest.(check bool)
        (Arch.name arch ^ " r5 live at entry")
        true
        (Reg.Set.mem Reg.r5 (Liveness.live_in lv entry));
      Alcotest.(check bool)
        (Arch.name arch ^ " r5 not a scratch candidate")
        false
        (Reg.Set.mem Reg.r5 (Liveness.dead_in arch lv entry)))

(* Every block of every function agrees with the reference fixpoint. *)
let check_liveness_matches_reference what bin =
  let p = Parse.parse bin in
  List.iter
    (fun fa ->
      match
        Liveness_ref.mismatches fa.Parse.fa_cfg (Liveness.analyze fa.Parse.fa_cfg)
      with
      | [] -> ()
      | (a, got, want) :: _ ->
          Alcotest.failf "%s %s block 0x%x: live-in {%s}, reference {%s}" what
            fa.Parse.fa_sym.Icfg_obj.Symbol.name a
            (String.concat "," (List.map Reg.to_string (Reg.Set.elements got)))
            (String.concat "," (List.map Reg.to_string (Reg.Set.elements want))))
    p.Parse.funcs

let test_liveness_reference_spec () =
  on_all_arches (fun arch ->
      List.iter
        (fun bench ->
          let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
          check_liveness_matches_reference
            (Arch.name arch ^ "/" ^ bin.Binary.name)
            bin)
        (Icfg_workloads.Spec_suite.benchmarks arch))

let test_liveness_reference_corpus () =
  List.iter
    (fun e ->
      check_liveness_matches_reference
        (Printf.sprintf "corpus entry %d" e.Icfg_workloads.Corpus.e_id)
        (Icfg_workloads.Corpus.build e))
    (Icfg_workloads.Corpus.generate ~seed:7 ~count:60)

(* ------------------------------------------------------------------ *)
(* Parse keeps pass 1's work: reuse = rebuild                          *)
(* ------------------------------------------------------------------ *)

let bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let outcome f a =
  match f a with r -> Ok r | exception Invalid_argument m -> Error m

(* Every final CFG equals a from-scratch build with the parse's own leaders
   and table edges, every pointer target inside a function starts one of
   its blocks, the kept scans equal a full rescan, and the function's
   decoder agrees with [Binary.decode_at] wherever the CFG decoded. *)
let check_reuse_matches_rebuild what bin =
  let p = Parse.parse bin in
  List.iter
    (fun (fa : Parse.func_analysis) ->
      let sym = fa.Parse.fa_sym in
      let name = what ^ " " ^ sym.Icfg_obj.Symbol.name in
      let same field a b =
        if a <> b then Alcotest.failf "%s: %s differs from a rebuild" name field
      in
      let extra_targets =
        List.filter (Icfg_obj.Symbol.contains sym) p.Parse.pointer_targets
      in
      let jump_table_edges =
        List.map
          (fun (t : Jump_table.table) ->
            (t.Jump_table.t_jump, t.Jump_table.t_targets))
          fa.Parse.fa_tables
      in
      let got = fa.Parse.fa_cfg in
      let want = Cfg.build ~extra_targets ~jump_table_edges bin sym in
      same "blocks" got.Cfg.blocks want.Cfg.blocks;
      same "succs" (bindings got.Cfg.succs) (bindings want.Cfg.succs);
      same "preds" (bindings got.Cfg.preds) (bindings want.Cfg.preds);
      same "calls" got.Cfg.calls want.Cfg.calls;
      same "ind_jumps" got.Cfg.ind_jumps want.Cfg.ind_jumps;
      same "tail_targets" got.Cfg.tail_targets want.Cfg.tail_targets;
      List.iter
        (fun a ->
          if not (Hashtbl.mem got.Cfg.succs a) then
            Alcotest.failf "%s: pointer target 0x%x starts no block" name a)
        extra_targets;
      let decode = Binary.decoder bin sym.Icfg_obj.Symbol.addr in
      List.iter
        (fun b ->
          List.iter
            (fun (a, _, _) ->
              same (Printf.sprintf "decode at 0x%x" a) (decode a)
                (Binary.decode_at bin a))
            b.Cfg.b_insns)
        got.Cfg.blocks)
    p.Parse.funcs;
  let cfgs = List.map (fun fa -> fa.Parse.fa_cfg) p.Parse.funcs in
  if p.Parse.fptrs <> Func_ptr.analyze bin p.Parse.fm cfgs then
    Alcotest.failf "%s: pointer sites differ from a full rescan" what

(* The spec suite, plus the one input whose second pointer scan differs
   from its first. *)
let test_reuse_spec () =
  on_all_arches (fun arch ->
      let adj = if arch = Arch.X86_64 then 1 else 4 in
      List.iter
        (fun bin ->
          check_reuse_matches_rebuild (Arch.name arch ^ "/" ^ bin.Binary.name) bin)
        (fst (compile arch (go_switch_prog adj))
        :: List.map
             (fun bench -> fst (Icfg_workloads.Spec_suite.compile arch bench))
             (Icfg_workloads.Spec_suite.benchmarks arch)))

let test_reuse_corpus () =
  List.iter
    (fun e ->
      check_reuse_matches_rebuild
        (Printf.sprintf "corpus entry %d" e.Icfg_workloads.Corpus.e_id)
        (Icfg_workloads.Corpus.build e))
    (Icfg_workloads.Corpus.generate ~seed:7 ~count:48)

(* The decoder of a code section with a zero-filled tail agrees with
   [Binary.decode_at] at every address of the section and past it, and
   for an address outside the section: the same instruction or the same
   exception. *)
let test_decoder_zero_tail () =
  on_all_arches (fun arch ->
      let code =
        String.concat ""
          (List.map (Encode.encode arch)
             [
               Insn.Mov (Reg.r0, Insn.Imm 5);
               Insn.Add (Reg.r1, Insn.Reg Reg.r0);
               Insn.Ret;
             ])
      in
      let text =
        Icfg_obj.Section.make ~name:".text" ~vaddr:0x1000
          ~perm:Icfg_obj.Section.r_x ~size:(String.length code + 0x40)
          (Bytes.of_string (String.sub code 0 (String.length code - 1)))
      in
      let data =
        Icfg_obj.Section.make ~name:".data" ~vaddr:0x2000
          ~perm:Icfg_obj.Section.r_w (Bytes.make 16 '\001')
      in
      let bin =
        Binary.make ~name:"tail" ~arch ~entry:0x1000 ~symbols:[] [ text; data ]
      in
      let decode = Binary.decoder bin 0x1000 in
      List.iter
        (fun a ->
          if outcome decode a <> outcome (Binary.decode_at bin) a then
            Alcotest.failf "%s: decoder differs at 0x%x" (Arch.name arch) a)
        (List.init (Icfg_obj.Section.size text + 8) (fun i -> 0x1000 + i)
        @ [ 0; 0x0fff; 0x2000; 0x2008; 0x3000 ]))

(* [Insn.defs]/[uses] written as sets, independently of the masks they
   are derived from: the reference for those masks. [Liveness_ref] calls
   [Insn.uses] itself, so it cannot catch a mask error. *)
let ref_defs =
  let one r = Reg.Set.singleton r in
  Insn.(
    function
    | Mov (r, _) | Movhi (r, _) | Movabs (r, _) | Load (_, r, _, _)
    | LoadIdx (_, r, _, _, _) | Lea (r, _) | Mflr r | Adrp (r, _)
    | Addis (r, _, _) | Orlo (r, _) | Add (r, _) | Sub (r, _) | Mul (r, _)
    | And_ (r, _) | Or_ (r, _) | Xor (r, _) | Shl (r, _) | Shr (r, _) ->
        one r
    | Call _ | IndCall _ | IndCallMem _ | CallRt _ -> one Reg.ret
    | Nop | Halt | Trap | Illegal | Cmp _ | Store _ | AddSp _ | Jmp _ | Jcc _
    | IndJmp _ | Ret | Throw | Out _ | Mtlr _ | Mttar _ | Btar ->
        Reg.Set.empty)

let ref_uses =
  let operand = function Insn.Reg r -> [ r ] | Insn.Imm _ -> [] in
  let base = function Insn.BReg r -> [ r ] | Insn.BSp -> [] in
  fun i ->
    Reg.Set.of_list
      Insn.(
        match i with
        | Mov (_, o) -> operand o
        | Movhi _ | Movabs _ | Mflr _ | Adrp _ -> []
        | Orlo (r, _) | Shl (r, _) | Shr (r, _) -> [ r ]
        | Add (r, o) | Sub (r, o) | Mul (r, o) | And_ (r, o) | Or_ (r, o)
        | Xor (r, o) | Cmp (r, o) ->
            r :: operand o
        | Load (_, _, b, _) -> base b
        | LoadIdx (_, _, rb, ri, _) -> [ rb; ri ]
        | Store (_, b, _, rs) -> rs :: base b
        | Lea _ | AddSp _ | Jmp _ | Jcc _ | Call _ | CallRt _ -> []
        | IndJmp r | IndCall r -> [ r ]
        | IndCallMem (b, _) -> base b
        | Ret | Halt | Trap | Illegal | Nop | Btar -> []
        | Throw -> [ Reg.r0 ]
        | Out r | Mtlr r | Mttar r -> [ r ]
        | Addis (_, rs, _) -> [ rs ])

let masks_match_sets =
  let gen_reg = Test_isa.gen_reg in
  QCheck2.Test.make ~count:2000 ~name:"Insn uses/defs masks = set reference"
    ~print:Insn.to_string
    QCheck2.Gen.(
      oneof
        [
          Test_isa.gen_common_insn;
          map2 (fun r n -> Insn.Movabs (r, n)) gen_reg int;
          map2 (fun r d -> Insn.Adrp (r, d)) gen_reg int;
          map3 (fun rd rs n -> Insn.Addis (rd, rs, n)) gen_reg gen_reg int;
          map (fun r -> Insn.Mttar r) gen_reg;
          oneofl [ Insn.Btar; Insn.Illegal ];
        ])
    (fun i ->
      Reg.Set.equal (Insn.defs i) (ref_defs i)
      && Reg.Set.equal (Insn.uses i) (ref_uses i))

(* ------------------------------------------------------------------ *)
(* Whole-binary parse                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_coverage () =
  on_all_arches (fun arch ->
      let bin, _ = compile arch (switch_prog Ir.Jt_plain) in
      let p = Parse.parse bin in
      Alcotest.(check bool) "full coverage" true (Parse.coverage p = 1.0);
      let bin', _ = compile arch (switch_prog Ir.Jt_data_table) in
      let p' = Parse.parse bin' in
      Alcotest.(check bool)
        (Arch.name arch ^ " partial coverage")
        true
        (Parse.coverage p' < 1.0))

let suite =
  [
    ( "analysis:cfg",
      [
        Alcotest.test_case "basic blocks" `Quick test_cfg_basic;
        Alcotest.test_case "block partition" `Quick test_cfg_blocks_partition;
        Alcotest.test_case "call edges" `Quick test_cfg_call_edges;
        Alcotest.test_case "embedded table skipped" `Quick
          test_cfg_skips_embedded_table;
        Alcotest.test_case "oversized symbol" `Quick test_cfg_oversized_symbol;
      ] );
    ( "analysis:jump-table",
      [
        Alcotest.test_case "plain resolves (all arches)" `Quick
          test_jt_plain_resolves;
        Alcotest.test_case "spilled base: ours vs srbi" `Quick
          test_jt_spilled_ours_vs_srbi;
        Alcotest.test_case "data table unresolvable" `Quick
          test_jt_data_table_unresolvable;
        Alcotest.test_case "forced under-approximation" `Quick test_jt_bound_under;
        Alcotest.test_case "over-approximation trimmed" `Quick
          test_jt_bound_over_trimmed;
        Alcotest.test_case "aarch64 wide entries" `Quick
          test_jt_aarch64_wide_entries;
        Alcotest.test_case "slots positional" `Quick test_jt_slots_positional;
        Alcotest.test_case "adjacent tables trim extension" `Quick
          test_known_data_trims_adjacent_tables;
        Alcotest.test_case "guard bound = truth" `Quick
          test_guard_bound_matches_truth;
      ] );
    ( "analysis:tail-call",
      [
        Alcotest.test_case "layout heuristic vs teardown" `Quick
          test_indirect_tail_call_heuristics;
      ] );
    ( "analysis:func-ptr",
      [
        Alcotest.test_case "slot and mater discovery" `Quick test_fptr_discovery;
        Alcotest.test_case "adjusted pointer (Listing 1)" `Quick test_fptr_adjusted;
        Alcotest.test_case "baseline misses adjusted" `Quick
          test_fptr_no_forward_slice_baseline;
        Alcotest.test_case "dedup: equal-provenance-sum collision" `Quick
          test_fptr_dedup_collision;
        Alcotest.test_case "dedup collision through analyze" `Quick
          test_fptr_dedup_analyze;
        QCheck_alcotest.to_alcotest fptr_dedup_never_drops;
        Alcotest.test_case "case-body target is a leader; 3 modes verify" `Quick
          test_fptr_case_body_leader;
      ] );
    ( "analysis:liveness",
      [
        Alcotest.test_case "dead temps at entry" `Quick test_liveness_dead_temps;
        Alcotest.test_case "args live at entry" `Quick
          test_liveness_conservative_on_args;
        Alcotest.test_case "151-block chain: no sweep cap" `Quick
          test_liveness_long_chain;
        Alcotest.test_case "= reference: spec suite x 3 ISAs" `Quick
          test_liveness_reference_spec;
        Alcotest.test_case "= reference: seed-7 corpus" `Quick
          test_liveness_reference_corpus;
      ] );
    ( "analysis:parse",
      [
        Alcotest.test_case "coverage" `Quick test_parse_coverage;
        Alcotest.test_case "reuse = rebuild: spec suite + case-body x 3 ISAs"
          `Quick test_reuse_spec;
        Alcotest.test_case "reuse = rebuild: seed-7 corpus" `Quick
          test_reuse_corpus;
        Alcotest.test_case "decoder = decode_at on a zero tail" `Quick
          test_decoder_zero_tail;
        QCheck_alcotest.to_alcotest masks_match_sets;
      ] );
  ]
