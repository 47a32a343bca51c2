(* Differential fuzzing: random workload specs are compiled, rewritten in a
   random mode for a random architecture (position-dependent or PIE), and
   the rewritten binary must behave identically to the original under the
   strong test (original bytes destroyed, per-block counting verified).

   This is the repository's broadest property: the entire pipeline —
   generator, compiler, analyses, rewriter, runtime — agrees with itself on
   arbitrary programs. *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Parse = Icfg_analysis.Parse
module Runner = Icfg_harness.Runner

let spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 100_000 in
  let* n_compute = int_range 1 5 in
  let* n_switch = int_range 0 5 in
  let* n_dispatch = int_range 0 2 in
  let* n_hard_spill = int_range 0 (min 1 n_switch) in
  let* n_frameless = int_range 0 1 in
  let* n_data_table = int_range 0 1 in
  let* exceptions = bool in
  let* cases = oneofl [ 4; 8 ] in
  let* work = int_range 1 6 in
  return
    {
      Gen.seed;
      name = Printf.sprintf "fuzz%d" seed;
      langs = [ Icfg_obj.Binary.C ];
      exceptions;
      n_compute;
      n_switch;
      n_dispatch;
      n_hard_spill;
      n_frameless_tail = n_frameless;
      n_data_table;
      iters = 6;
      inner = 2;
      work;
      cases;
    }

(* Go-flavoured cases ride along with conservative settings: Go binaries
   are PIE, vtable dispatch needs at least [Jt] coverage, and the runtime
   hooks make the count-check meaningless, so those run output-only. *)
let config_gen =
  QCheck2.Gen.(
    pair
      (quad (oneofl Arch.all) (oneofl Mode.all) bool (* pie *)
         (oneofl [ `Original; `Reverse_funcs; `Reverse_blocks ]))
      (frequency [ (4, return false); (1, return true) ]))

let print_case (spec, ((arch, mode, pie, order), go)) =
  Printf.sprintf
    "seed=%d sw=%d disp=%d spill=%d fl=%d dt=%d exc=%b %s/%s%s%s%s"
    spec.Gen.seed spec.Gen.n_switch spec.Gen.n_dispatch spec.Gen.n_hard_spill
    spec.Gen.n_frameless_tail spec.Gen.n_data_table spec.Gen.exceptions
    (Arch.name arch) (Mode.name mode)
    (if pie then " pie" else "")
    (match order with
    | `Original -> ""
    | `Reverse_funcs -> " rev-funcs"
    | `Reverse_blocks -> " rev-blocks")
    (if go then " go" else "")

(* The rewrite halts with the original's output, which halts too. *)
let behaves ~options bin =
  let orig = Runner.run_original bin in
  orig.Runner.r_outcome = Icfg_runtime.Vm.Halted
  &&
  match Runner.judge ~orig (Runner.run_rewritten (Runner.rewrite ~options bin)) with
  | Runner.Verified _ -> true
  | Runner.Diverged | Runner.Crashed _ -> false

let rewrite_roundtrip =
  QCheck2.Test.make ~count:60 ~name:"fuzz: rewrite preserves behaviour"
    ~print:print_case
    QCheck2.Gen.(pair spec_gen config_gen)
    (fun (spec, ((arch, mode, pie, order), go)) ->
      (* conservative Go constraints; see comment on [config_gen] *)
      let pie = pie || go in
      let mode = if go && mode = Mode.Func_ptr then Mode.Jt else mode in
      let order = if go then `Original else order in
      let payload = if go then Rewriter.P_empty else Rewriter.P_count in
      let prog =
        if go then
          let adjust = if arch = Arch.X86_64 then 1 else 4 in
          let gs =
            Gen.go_spec ~seed:spec.Gen.seed
              ~name:(Printf.sprintf "gofuzz%d" spec.Gen.seed)
              ~iters:spec.Gen.iters
          in
          Gen.build_go ~vtab_check:false ~goexit_adjust:adjust gs
        else Gen.build spec
      in
      let bin, _ = Icfg_codegen.Compile.compile ~pie arch prog in
      let options =
        { Rewriter.default_options with Rewriter.mode; payload; order }
      in
      if go then behaves ~options bin
      else
        match (Runner.strong_test ~options bin).Runner.st_problems with
        | [] -> true
        | ps
          when List.exists
                 (function Runner.Original_crashed _ -> true | _ -> false)
                 ps ->
            QCheck2.assume_fail () (* generator bug, not ours *)
        | _ -> false)

let go_roundtrip =
  QCheck2.Test.make ~count:20 ~name:"fuzz: go rewriting preserves tracebacks"
    QCheck2.Gen.(
      triple (int_range 1 10_000) (oneofl Arch.all)
        (oneofl [ Mode.Dir; Mode.Jt ]))
    (fun (seed, arch, mode) ->
      let adjust = if arch = Arch.X86_64 then 1 else 4 in
      let spec = Gen.go_spec ~seed ~name:(Printf.sprintf "gofuzz%d" seed) ~iters:5 in
      let prog = Gen.build_go ~vtab_check:false ~goexit_adjust:adjust spec in
      let bin, _ = Icfg_codegen.Compile.compile ~pie:true arch prog in
      behaves ~options:{ Rewriter.default_options with Rewriter.mode } bin)

(* The bit-set worklist liveness equals the [Reg.Set] reference fixpoint
   at every block start of every function of a random program. *)
let liveness_reference =
  QCheck2.Test.make ~count:40 ~name:"fuzz: liveness = reference fixpoint"
    ~print:(fun (spec, arch) ->
      Printf.sprintf "seed=%d sw=%d disp=%d %s" spec.Gen.seed spec.Gen.n_switch
        spec.Gen.n_dispatch (Arch.name arch))
    QCheck2.Gen.(pair spec_gen (oneofl Arch.all))
    (fun (spec, arch) ->
      let bin, _ = Icfg_codegen.Compile.compile arch (Gen.build spec) in
      List.for_all
        (fun fa ->
          let cfg = fa.Parse.fa_cfg in
          Liveness_ref.mismatches cfg (Icfg_analysis.Liveness.analyze cfg) = [])
        (Parse.parse bin).Parse.funcs)

let suite =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest rewrite_roundtrip;
        QCheck_alcotest.to_alcotest go_roundtrip;
        QCheck_alcotest.to_alcotest liveness_reference;
      ] );
  ]
