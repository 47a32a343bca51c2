(* Partial instrumentation: the Diogenes workflow of section 9.

   Instrument only the functions of interest inside a driver-like library
   (the cu* interfaces and the hidden internal synchronization function) and
   leave the other functions untouched — something the all-or-nothing IR
   lowering approach cannot do at all. The rewrite runs through [Runner],
   the one run configuration, which attaches the counting routine.

     dune exec examples/partial_instrumentation.exe *)

open Icfg_isa
module Parse = Icfg_analysis.Parse
module Rewriter = Icfg_core.Rewriter
module Runner = Icfg_harness.Runner

let () =
  let arch = Arch.X86_64 in
  let bin, _ = Icfg_workloads.Apps.libcuda arch in
  let subset = Icfg_workloads.Apps.libcuda_api_subset bin in
  let parse = Parse.parse bin in
  Format.printf "libcuda analogue: %d functions; instrumenting %d of them@."
    (Parse.total_funcs parse) (List.length subset);

  (* Count executions of the instrumented functions only. *)
  let rw =
    Rewriter.rewrite
      ~options:
        {
          Rewriter.default_options with
          Rewriter.only = Some subset;
          payload = Rewriter.P_count;
        }
      parse
  in
  Format.printf "%a@." Rewriter.pp_stats rw.Rewriter.rw_stats;

  let counters = Hashtbl.create 64 in
  let r = Runner.run_rewritten ~counters rw in
  (match r.Runner.r_outcome with
  | Icfg_runtime.Vm.Halted -> Format.printf "run ok (%d traps)@." r.Runner.r_traps
  | Icfg_runtime.Vm.Crashed m -> failwith m);

  (* Which instrumented function is the hidden synchronization hot spot? *)
  let totals = Hashtbl.create 16 in
  Hashtbl.iter
    (fun block count ->
      match Icfg_obj.Binary.symbol_at bin block with
      | Some s ->
          let n = s.Icfg_obj.Symbol.name in
          Hashtbl.replace totals n
            (count + Option.value ~default:0 (Hashtbl.find_opt totals n))
      | None -> ())
    counters;
  let ranked =
    List.sort (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])
  in
  Format.printf "@.instrumented-function execution profile (top 6):@.";
  List.iteri
    (fun i (n, c) ->
      if i < 6 then Format.printf "  %-18s %9d block executions@." n c)
    ranked;
  match ranked with
  | (top, _) :: _ ->
      Format.printf
        "@.'%s' dominates: the hidden synchronization function Diogenes@.\
         identifies by instrumenting exactly this subset (section 9).@."
        top
  | [] -> ()
