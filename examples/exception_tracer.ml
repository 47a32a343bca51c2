(* Exception tracer: demonstrates runtime return-address translation.

   A C++-style binary whose hot path throws and catches across frames is
   rewritten three ways:
   - with RA translation (this paper, section 6): unwinding works, near-zero
     extra cost per throw;
   - with call emulation (SRBI/Multiverse): unwinding works, but every call
     pays the emulation sequence and every return bounces through a
     trampoline;
   - with neither: the unwinder meets relocated return addresses that have
     no frame information and the program dies.

   Every binary runs through [Runner], the one run configuration (icache
   on); the unwind steps come from the run's trace counters.

     dune exec examples/exception_tracer.exe *)

open Icfg_isa
open Icfg_codegen
module Rewriter = Icfg_core.Rewriter
module Runner = Icfg_harness.Runner
module Trace = Icfg_core.Trace

let program =
  Ir.program ~name:"exceptions"
    ~features:
      { Icfg_obj.Binary.no_features with
        Icfg_obj.Binary.langs = [ Icfg_obj.Binary.Cpp ]; cpp_exceptions = true }
    ~main:"main"
    [
      Ir.func "risky" [ "x" ]
        [
          Ir.If
            ( Insn.Eq, Bin (Band, Var "x", Int 3), Int 0,
              [ Ir.Throw (Var "x") ], [] );
          Ir.Return (Bin (Badd, Var "x", Int 1));
        ];
      Ir.func "middle" [ "x" ]
        [
          Ir.Call (Some "r", Direct "risky", [ Var "x" ]);
          Ir.Return (Var "r");
        ];
      Ir.func "main" []
        [
          Ir.Let ("ok", Int 0);
          Ir.Let ("caught", Int 0);
          Ir.For
            ( "i", 0, 64,
              [
                Ir.Try
                  ( [
                      Ir.Call (Some "r", Direct "middle", [ Var "i" ]);
                      Ir.Set (Lvar "ok", Bin (Badd, Var "ok", Int 1));
                    ],
                    "e",
                    [ Ir.Set (Lvar "caught", Bin (Badd, Var "caught", Int 1)) ] );
              ] );
          Ir.Print (Var "ok");
          Ir.Print (Var "caught");
          Ir.Return (Int 0);
        ];
    ]

(* Run [f] (one [Runner] run, booked as [vm/<which>/*]) under a fresh
   trace, and print its row with the unwind steps the trace counted. *)
let show label which f extra =
  let t = Trace.create () in
  let r : Runner.run = Trace.with_current t f in
  let unwind =
    Option.value ~default:0
      (Trace.find_counter t ("vm/" ^ which ^ "/unwind-steps"))
  in
  Format.printf "  %-28s %-34s cycles %8s  unwind steps %4d%s@." label
    (match r.r_outcome with
    | Icfg_runtime.Vm.Halted ->
        "ok, output " ^ String.concat "," (List.map string_of_int r.r_output)
    | Icfg_runtime.Vm.Crashed m -> "CRASHED: " ^ m)
    (string_of_int r.r_cycles) unwind extra

let () =
  let arch = Arch.X86_64 in
  let bin, _ = Compile.compile arch program in
  Format.printf "48 calls succeed, 16 throw and are caught two frames up.@.@.";
  show "original" "original" (fun () -> Runner.run_original bin) "";

  let attempt label options =
    let rw = Runner.rewrite ~options bin in
    let map_size = Icfg_runtime.Runtime_lib.Ra_map.size rw.Rewriter.rw_ra_map in
    show label "rewritten"
      (fun () -> Runner.run_rewritten rw)
      (Printf.sprintf "  (ra-map entries: %d)" map_size)
  in
  attempt "RA translation (ours)" Rewriter.default_options;
  attempt "call emulation (SRBI-like)"
    {
      (Rewriter.srbi_like Rewriter.P_empty) with
      Rewriter.tramp_at_every_block = false;
      use_superblocks = true;
      use_scratch_pool = true;
      instr_gap = 0x1000;
    };
  attempt "no unwinding support"
    { Rewriter.default_options with Rewriter.ra_translation = false };
  Format.printf
    "@.The RA map translates each relocated return address back to its@.\
     original call site before every unwind step, so .eh_frame is never@.\
     modified (section 6 of the paper).@."
