(* Quickstart: the public API in ~40 lines.

   Build a small program with a jump table and function pointers, compile it
   for an architecture, parse it, rewrite it with incremental CFG patching,
   and run both binaries through [Runner], the one run configuration, to
   show the rewriting is invisible.

     dune exec examples/quickstart.exe *)

open Icfg_isa
open Icfg_codegen
module Rewriter = Icfg_core.Rewriter
module Runner = Icfg_harness.Runner

(* A small source program in the structured IR. *)
let program =
  Ir.program ~name:"hello-rewriting" ~main:"main"
    ~data:[ Ir.Func_table ("ops", [ "double_"; "square" ]) ]
    [
      Ir.func "double_" [ "x" ] [ Ir.Return (Bin (Bmul, Var "x", Int 2)) ];
      Ir.func "square" [ "x" ] [ Ir.Return (Bin (Bmul, Var "x", Var "x")) ];
      Ir.func "classify" [ "x" ]
        [
          (* switch (x & 3) -> compiled to a jump table *)
          Ir.Switch
            ( Ir.Jt_plain,
              Bin (Band, Var "x", Int 3),
              [|
                [ Ir.Return (Int 10) ];
                [ Ir.Return (Int 20) ];
                [ Ir.Return (Int 30) ];
                [ Ir.Return (Int 40) ];
              |],
              [ Ir.Return (Int 0) ] );
        ];
      Ir.func "main" []
        [
          Ir.For
            ( "i",
              0,
              8,
              [
                Ir.Call (Some "c", Direct "classify", [ Var "i" ]);
                (* indirect call through the function-pointer table *)
                Ir.Call (Some "v", Via_ptr (Table_elt ("ops", Bin (Band, Var "i", Int 1))), [ Var "c" ]);
                Ir.Print (Var "v");
              ] );
          Ir.Return (Int 0);
        ];
    ]

let () =
  let arch = Arch.X86_64 in
  (* 1. Compile (the synthetic GCC). *)
  let binary, _debug = Compile.compile arch program in
  Format.printf "compiled %a@." Icfg_obj.Binary.pp binary;

  (* 2. Parse: CFGs, jump tables, function pointers, liveness. *)
  let parse = Icfg_analysis.Parse.parse binary in
  Format.printf "%a@." Icfg_analysis.Parse.pp_summary parse;

  (* 3. Rewrite with incremental CFG patching (jt mode: jump tables are
        cloned so switch dispatch stays in the relocated code). *)
  let rw =
    Rewriter.rewrite
      ~options:{ Rewriter.default_options with Rewriter.mode = Icfg_core.Mode.Jt }
      parse
  in
  Format.printf "rewrote: %a@." Rewriter.pp_stats rw.Rewriter.rw_stats;

  (* 4. Run the original and the rewritten binary; outputs must agree even
        though every original code byte was overwritten with illegal
        instructions (only the trampolines remain). *)
  let run_orig = Runner.run_original binary in
  let run_rw = Runner.run_rewritten rw in
  Format.printf "original : %s@."
    (String.concat " " (List.map string_of_int run_orig.Runner.r_output));
  Format.printf "rewritten: %s@."
    (String.concat " " (List.map string_of_int run_rw.Runner.r_output));
  assert (
    match Runner.judge ~orig:run_orig run_rw with
    | Runner.Verified _ -> true
    | Runner.Diverged | Runner.Crashed _ -> false);
  Format.printf "outputs identical — rewriting is transparent.@."
