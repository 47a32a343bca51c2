(* Failure-mode methodology: the paper's Figure 2 as an interactive demo.

   Binary analysis fails in three ways, and the paper's central claim is
   that these failures have graded — not uniform — impact on rewriting:

     analysis failure      -> lower coverage, everything else correct
     over-approximation    -> wasted trampoline space, still correct
     under-approximation   -> catastrophic (and loudly so, thanks to the
                              strong test destroying original code bytes)

   This example injects each failure into the jump-table analysis of the
   same program and judges each rewrite with the strong test,
   Icfg_harness.Runner.strong_test. Exactly one row reads FAILED: the
   under-approximated bound.

     dune exec examples/failure_modes.exe *)

open Icfg_isa
module Failure_model = Icfg_analysis.Failure_model
module Parse = Icfg_analysis.Parse
module Runner = Icfg_harness.Runner
module Rewriter = Icfg_core.Rewriter

let program =
  Icfg_workloads.Gen.build
    {
      Icfg_workloads.Gen.default_spec with
      Icfg_workloads.Gen.name = "figure2-demo";
      seed = 7;
      n_switch = 3;
      iters = 40;
    }

let with_data_table =
  Icfg_workloads.Gen.build
    {
      Icfg_workloads.Gen.default_spec with
      Icfg_workloads.Gen.name = "figure2-demo";
      seed = 7;
      n_switch = 3;
      n_data_table = 1;
      iters = 40;
    }

let () =
  let arch = Arch.X86_64 in
  let options = { Rewriter.default_options with Rewriter.mode = Icfg_core.Mode.Dir } in
  let show label fm prog =
    let bin, _ = Icfg_codegen.Compile.compile arch prog in
    let parse = Parse.parse ~fm bin in
    let t = Runner.strong_test ~fm ~options bin in
    Format.printf "%-38s coverage %6.2f%%  trampolines %3d  -> %s@." label
      (100. *. Parse.coverage parse)
      t.Runner.st_stats.Rewriter.s_trampolines
      (match t.Runner.st_problems with
      | [] -> "correct"
      | p :: _ -> Format.asprintf "FAILED (%a)" Runner.pp_problem p)
  in
  Format.printf
    "Figure 2: how CFG-construction failures affect rewriting (x86-64, dir \
     mode)@.@.";
  show "accurate CFG" Failure_model.ours program;
  show "analysis failure (graceful skip)" Failure_model.ours with_data_table;
  show "over-approximated table bound (+8)"
    {
      (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 8)) with
      Failure_model.extend_to_known_data = false;
    }
    program;
  show "under-approximated table bound (-2)"
    (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2))
    program;
  Format.printf
    "@.Only under-approximation produces wrong rewriting — and the strong@.\
     test makes it crash instead of silently corrupting results. This is@.\
     why the paper's jump-table analysis extends bounds to the next known@.\
     data (never under-approximating) and clones tables instead of@.\
     patching them in place (tolerating over-approximation).@."
