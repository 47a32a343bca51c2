module Binary = Icfg_obj.Binary
module Parse = Icfg_analysis.Parse
module Cfg = Icfg_analysis.Cfg
module Vm = Icfg_runtime.Vm
module Runtime_lib = Icfg_runtime.Runtime_lib

type failure =
  | Original_crashed of string
  | Rewritten_crashed of string
  | Output_mismatch
  | Count_mismatch of { block : int; expected : int; got : int }

type report = {
  ok : bool;
  failures : failure list;
  blocks_checked : int;
  blocks_executed : int;
  orig_cycles : int;
  rewritten_cycles : int;
  rewritten_traps : int;
  stats : Rewriter.stats;
  trace : Trace.t;
}

let pp_failure ppf = function
  | Original_crashed m -> Format.fprintf ppf "original crashed: %s" m
  | Rewritten_crashed m -> Format.fprintf ppf "rewritten crashed: %s" m
  | Output_mismatch -> Format.fprintf ppf "observable output differs"
  | Count_mismatch { block; expected; got } ->
      Format.fprintf ppf
        "block 0x%x executed %d times but instrumentation counted %d" block
        expected got

let pp_report ppf r =
  if r.ok then
    Format.fprintf ppf
      "OK: %d blocks verified (%d executed), cycles %d -> %d (traps %d)@."
      r.blocks_checked r.blocks_executed r.orig_cycles r.rewritten_cycles
      r.rewritten_traps
  else begin
    Format.fprintf ppf "FAILED (%d problems):@." (List.length r.failures);
    List.iter (fun f -> Format.fprintf ppf "  - %a@." pp_failure f) r.failures
  end

let base_config (bin : Binary.t) =
  let c = Vm.default_config () in
  if bin.Binary.pie then { c with Vm.load_base = 0x20000000 } else c

let strong_test ?(options = Rewriter.default_options) ?fm bin =
  let options =
    {
      options with
      Rewriter.payload = Rewriter.P_count;
      granularity = Rewriter.G_block;
      overwrite_original = true;
    }
  in
  (* The whole strong test runs under its own trace so the report can say
     where cycles and traps went; when the caller already installed an
     ambient trace it is shadowed for the duration (nesting would double
     count the shared counter namespace). *)
  let trace = Trace.create () in
  Trace.with_current trace @@ fun () ->
  let parse = Parse.parse ?fm bin in
  let rw = Rewriter.rewrite ~options parse in
  (* Which functions were actually instrumented (instrumentable + filter)? *)
  let instrumented fa =
    fa.Parse.fa_instrumentable
    &&
    match options.Rewriter.only with
    | None -> true
    | Some names -> List.mem fa.Parse.fa_sym.Icfg_obj.Symbol.name names
  in
  (* Ground-truth profile of the original run. *)
  let profile = Hashtbl.create 512 in
  List.iter
    (fun fa ->
      List.iter
        (fun (b : Cfg.block) -> Hashtbl.replace profile b.Cfg.b_start 0)
        fa.Parse.fa_cfg.Cfg.blocks)
    parse.Parse.funcs;
  let orig =
    Trace.span "run:original" @@ fun () ->
    Vm.run
      ~config:{ (base_config bin) with Vm.profile = Some profile }
      ~routines:(Runtime_lib.standard ()) bin
  in
  Trace.add_vm ~prefix:"vm/original" orig;
  let counters = Hashtbl.create 512 in
  let config = Rewriter.vm_config_for rw (base_config bin) in
  let rewritten =
    Trace.span "run:rewritten" @@ fun () ->
    Vm.run ~config ~routines:(Rewriter.routines_for rw ~counters)
      rw.Rewriter.rw_binary
  in
  Trace.add_vm ~prefix:"vm/rewritten" rewritten;
  let failures = ref [] in
  (match orig.Vm.outcome with
  | Vm.Crashed m -> failures := Original_crashed m :: !failures
  | Vm.Halted -> ());
  (match rewritten.Vm.outcome with
  | Vm.Crashed m -> failures := Rewritten_crashed m :: !failures
  | Vm.Halted -> ());
  if
    orig.Vm.outcome = Vm.Halted
    && rewritten.Vm.outcome = Vm.Halted
    && orig.Vm.output <> rewritten.Vm.output
  then failures := Output_mismatch :: !failures;
  let blocks_checked = ref 0 and blocks_executed = ref 0 in
  (Trace.span "check-counts" @@ fun () ->
  if !failures = [] then
    List.iter
      (fun fa ->
        if instrumented fa then
          List.iter
            (fun (b : Cfg.block) ->
              incr blocks_checked;
              let expected =
                Option.value ~default:0 (Hashtbl.find_opt profile b.Cfg.b_start)
              in
              let got =
                Option.value ~default:0 (Hashtbl.find_opt counters b.Cfg.b_start)
              in
              if expected > 0 then incr blocks_executed;
              if expected <> got then
                failures :=
                  Count_mismatch { block = b.Cfg.b_start; expected; got }
                  :: !failures)
            fa.Parse.fa_cfg.Cfg.blocks)
      parse.Parse.funcs);
  {
    ok = !failures = [];
    failures = List.rev !failures;
    blocks_checked = !blocks_checked;
    blocks_executed = !blocks_executed;
    orig_cycles = orig.Vm.cycles;
    rewritten_cycles = rewritten.Vm.cycles;
    rewritten_traps = rewritten.Vm.trap_hits;
    stats = rw.Rewriter.rw_stats;
    trace;
  }
