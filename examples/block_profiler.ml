(* Block profiler: a real instrumentation client on top of the rewriter.

   Rewrites a SPEC-like benchmark with the counting payload at every basic
   block, runs it through [Runner] (the one run configuration, with the
   runtime library's counting routine attached), and prints the hottest
   functions and blocks — the
   "function or block execution counts" tool the paper's discussion section
   uses as its canonical binary-rewriting application.

     dune exec examples/block_profiler.exe [-- <arch>] *)

open Icfg_isa
module Parse = Icfg_analysis.Parse
module Rewriter = Icfg_core.Rewriter
module Runner = Icfg_harness.Runner

let () =
  let arch =
    match Sys.argv with
    | [| _; a |] -> Option.value ~default:Arch.X86_64 (Arch.of_string a)
    | _ -> Arch.X86_64
  in
  let bench = List.nth (Icfg_workloads.Spec_suite.benchmarks arch) 3 in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  Format.printf "profiling %s on %a@." bench.Icfg_workloads.Spec_suite.bench_name
    Arch.pp arch;

  let parse = Parse.parse bin in
  let rw =
    Rewriter.rewrite
      ~options:
        {
          Rewriter.default_options with
          Rewriter.mode = Icfg_core.Mode.Func_ptr;
          payload = Rewriter.P_count;
        }
      parse
  in
  let counters = Hashtbl.create 256 in
  (match (Runner.run_rewritten ~counters rw).Runner.r_outcome with
  | Icfg_runtime.Vm.Halted -> ()
  | Icfg_runtime.Vm.Crashed m -> failwith ("rewritten run crashed: " ^ m));

  (* Aggregate per-block counts into per-function totals. *)
  let func_totals = Hashtbl.create 32 in
  Hashtbl.iter
    (fun block count ->
      match Icfg_obj.Binary.symbol_at bin block with
      | Some sym ->
          let name = sym.Icfg_obj.Symbol.name in
          Hashtbl.replace func_totals name
            (count + Option.value ~default:0 (Hashtbl.find_opt func_totals name))
      | None -> ())
    counters;
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) func_totals [])
  in
  Format.printf "@.hottest functions (block executions):@.";
  List.iteri
    (fun i (name, total) ->
      if i < 10 then Format.printf "  %2d. %-24s %10d@." (i + 1) name total)
    ranked;

  (* And the hottest individual blocks. *)
  let blocks =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [])
  in
  Format.printf "@.hottest blocks:@.";
  List.iteri
    (fun i (addr, count) ->
      if i < 8 then
        let fname =
          match Icfg_obj.Binary.symbol_at bin addr with
          | Some s -> s.Icfg_obj.Symbol.name
          | None -> "?"
        in
        Format.printf "  0x%06x (%s) %10d@." addr fname count)
    blocks;
  Format.printf "@.total blocks instrumented: %d, executed: %d@."
    rw.Rewriter.rw_stats.Rewriter.s_blocks (Hashtbl.length counters)
