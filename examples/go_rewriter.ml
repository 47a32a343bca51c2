(* Go rewriting: the Docker scenario of section 8.2.

   Go binaries unwind their own stacks (GC, dynamic stack growth) through a
   function table keyed by original PCs. The rewriter instruments the
   entries of runtime.findfunc/runtime.pcvalue with a call that translates
   the PC argument, so tracebacks of the rewritten binary see original
   addresses. func-ptr mode, by contrast, rewrites the interface-table
   slots that Go also compares against the function table — and fails.
   Both binaries run through [Runner], the one run configuration, which
   loads the PIE binary at [Vm.pie_base] and judges each rewrite.

     dune exec examples/go_rewriter.exe *)

open Icfg_isa
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode
module Runner = Icfg_harness.Runner

let () =
  let arch = Arch.X86_64 in
  let bin, _ = Icfg_workloads.Apps.docker arch in
  Format.printf "docker analogue: Go runtime, .gopclntab, PIE, no jump tables@.@.";

  let orig = Runner.run_original bin in
  Format.printf "original : %s (%d traceback frames emitted)@."
    (match orig.Runner.r_outcome with
    | Icfg_runtime.Vm.Halted -> "ok"
    | Icfg_runtime.Vm.Crashed m -> m)
    (List.length orig.Runner.r_output - 1);

  List.iter
    (fun mode ->
      let rw =
        Runner.rewrite ~options:{ Rewriter.default_options with Rewriter.mode } bin
      in
      match Runner.judge ~orig (Runner.run_rewritten rw) with
      | Runner.Verified _ ->
          Format.printf
            "%-9s: ok — tracebacks identical (findfunc entry instrumented: %b)@."
            (Mode.name mode) rw.Rewriter.rw_go_hook
      | Runner.Diverged -> Format.printf "%-9s: OUTPUT MISMATCH@." (Mode.name mode)
      | Runner.Crashed m -> Format.printf "%-9s: FAILED — %s@." (Mode.name mode) m)
    [ Mode.Dir; Mode.Jt; Mode.Func_ptr ];

  Format.printf
    "@.dir and jt behave identically (Go emits no jump tables); func-ptr@.\
     mode fails because Go's interface tables hold values that are both@.\
     called and compared against the function table — rewriting them@.\
     changes the comparison (sections 5.2 and 8.2).@."
