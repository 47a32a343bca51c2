module Vm = Icfg_runtime.Vm
module Runtime_lib = Icfg_runtime.Runtime_lib
module Rewriter = Icfg_core.Rewriter
module Parse = Icfg_analysis.Parse
module Cfg = Icfg_analysis.Cfg
module Binary = Icfg_obj.Binary
module Baseline = Icfg_baselines.Baseline

(* ------------------------------------------------------------------ *)
(* The rewriting pipeline entry points                                 *)
(* ------------------------------------------------------------------ *)

(* [?jobs] is ignored by all three (see runner.mli). *)
let parse ?fm ?jobs:_ bin = Parse.parse ?fm bin

let rewrite ?fm ?(options = Rewriter.default_options) ?jobs:_ ?cache bin =
  Rewriter.rewrite ?cache ~options (parse ?fm bin)

(* Name-addressed driving: the one resolution point shared by the corpus
   matrix and the serve daemon, so a request naming an approach runs the
   exact code path the in-process sweep runs (classification equality
   between the two is a gated invariant). *)
let drive ~approach ?jobs:_ bin =
  Option.map (fun driver -> driver bin)
    (List.assoc_opt approach Baseline.approaches)

(* ------------------------------------------------------------------ *)
(* Content perturbation (edit probes)                                  *)
(* ------------------------------------------------------------------ *)

(* Flip the low bit of one mov-immediate in one function, choosing a site
   that provably changes nothing but that function's bytes: the function
   has no jump tables or indirect jumps, the instruction is not a
   function-pointer materialization (neither old nor new value is a
   function entry, and the address is outside every [Fp_mater]
   provenance), and the re-encoded instruction has the same length. The
   perturbed binary then parses and rewrites identically except for that
   one function — the function edit the pinned-layout tests and
   benchmarks replay. *)
let perturb_function (p : Parse.t) =
  let bin = p.Parse.bin in
  let arch = bin.Binary.arch in
  let entries =
    List.map
      (fun (s : Icfg_obj.Symbol.t) -> s.Icfg_obj.Symbol.addr)
      (Binary.func_symbols bin)
  in
  let prov_addrs =
    List.concat_map
      (function
        | Icfg_analysis.Func_ptr.Fp_mater { prov; _ } -> prov
        | Icfg_analysis.Func_ptr.Fp_slot _ | Icfg_analysis.Func_ptr.Fp_adjusted _
          ->
            [])
      p.Parse.fptrs
  in
  let try_insn (addr, insn, len) =
    match (insn : Icfg_isa.Insn.t) with
    | Icfg_isa.Insn.Mov (r, Icfg_isa.Insn.Imm v)
      when (not (List.mem v entries))
           && (not (List.mem (v lxor 1) entries))
           && not (List.mem addr prov_addrs) -> (
        let insn' = Icfg_isa.Insn.Mov (r, Icfg_isa.Insn.Imm (v lxor 1)) in
        match Icfg_isa.Encode.encode arch insn' with
        | s when String.length s = len -> Some (addr, s)
        | _ -> None
        | exception Icfg_isa.Encode.Not_encodable _ -> None)
    | _ -> None
  in
  let candidate (fa : Parse.func_analysis) =
    fa.Parse.fa_instrumentable
    && fa.Parse.fa_tables = []
    && fa.Parse.fa_jt_sites = []
  in
  let rec find = function
    | [] -> None
    | fa :: rest when not (candidate fa) -> find rest
    | fa :: rest -> (
        let insns =
          List.concat_map
            (fun (b : Cfg.block) -> b.Cfg.b_insns)
            fa.Parse.fa_cfg.Cfg.blocks
        in
        match List.find_map try_insn insns with
        | Some (addr, s) ->
            Some
              (Binary.patch bin [ (addr, s) ], fa.Parse.fa_sym.Icfg_obj.Symbol.name)
        | None -> find rest)
  in
  find p.Parse.funcs

(* Flip one byte of one loaded, non-executable section, choosing a site
   that provably changes nothing the text-stage analyses compute: the
   perturbed binary is re-parsed (serially) and must reproduce the
   identical analysis — CFGs, jump tables, pointer sites — so the edit's
   only effect is the data bytes themselves. This is the probe behind the
   data-only-edit battery and the [cache-warm-data-edit] bench row: an
   identical analysis means no jump-table word flipped, so every function
   keeps its relocated code and a warm rewrite pins every segment.
   Read-only sections are tried first — writable words feed the
   value-match pointer scan on non-PIE binaries — and [.eh_frame] is
   excluded because its bytes are a text-stage input. *)
let perturb_data (p : Parse.t) =
  let bin = p.Parse.bin in
  let digest_of (q : Parse.t) =
    Digest.string
      (Marshal.to_string
         (q.Parse.funcs, q.Parse.fptrs, q.Parse.pointer_targets)
         [ Marshal.No_sharing ])
  in
  let want = digest_of p in
  let eligible (s : Icfg_obj.Section.t) =
    s.Icfg_obj.Section.loaded
    && (not s.Icfg_obj.Section.perm.Icfg_obj.Section.execute)
    && Icfg_obj.Section.size s > 0
    && s.Icfg_obj.Section.name <> ".eh_frame"
  in
  let ro, rw =
    List.partition
      (fun (s : Icfg_obj.Section.t) ->
        not s.Icfg_obj.Section.perm.Icfg_obj.Section.write)
      (List.filter eligible bin.Binary.sections)
  in
  let candidates =
    List.concat_map
      (fun (s : Icfg_obj.Section.t) ->
        let n = Icfg_obj.Section.size s in
        List.map
          (fun off -> (s, off))
          (List.sort_uniq compare
             (List.filter
                (fun off -> off >= 0 && off < n)
                [ n / 2; n / 3; 2 * n / 3; n - 1; 0 ])))
      (ro @ rw)
  in
  let try_one ((s : Icfg_obj.Section.t), off) =
    let addr = s.Icfg_obj.Section.vaddr + off in
    let c = Binary.read8 bin addr land 0xff in
    let out = Binary.patch bin [ (addr, String.make 1 (Char.chr (c lxor 1))) ] in
    let q = Parse.parse ~fm:p.Parse.fm out in
    if digest_of q = want then Some (out, s.Icfg_obj.Section.name) else None
  in
  (* Each probe costs a serial re-parse, so the attempt budget is small. *)
  let rec find k = function
    | [] -> None
    | _ when k <= 0 -> None
    | c :: rest -> (
        match try_one c with Some r -> Some r | None -> find (k - 1) rest)
  in
  find 16 candidates

(* Rename one instrumentable function symbol. Symbol names are not
   analysis or layout inputs anywhere else — relocated-block labels are
   address-namespaced — so a rename changes no relocated code and a warm
   rewrite pins every segment, which is what the one-symbol-edit battery
   pins. Go-hook names are skipped: those are matched by name in the
   rewriter. *)
let perturb_symbol (p : Parse.t) =
  let bin = p.Parse.bin in
  let hook n = n = "runtime.findfunc" || n = "runtime.pcvalue" in
  let pick (fa : Parse.func_analysis) =
    fa.Parse.fa_instrumentable
    && not (hook fa.Parse.fa_sym.Icfg_obj.Symbol.name)
  in
  match List.find_opt pick p.Parse.funcs with
  | None -> None
  | Some fa ->
      let old = fa.Parse.fa_sym.Icfg_obj.Symbol.name in
      let fresh = old ^ "$renamed" in
      if
        List.exists
          (fun (s : Icfg_obj.Symbol.t) -> s.Icfg_obj.Symbol.name = fresh)
          bin.Binary.symbols
      then None
      else
        let symbols =
          List.sort Icfg_obj.Symbol.compare_by_addr
            (List.map
               (fun (s : Icfg_obj.Symbol.t) ->
                 if
                   s.Icfg_obj.Symbol.addr = fa.Parse.fa_sym.Icfg_obj.Symbol.addr
                   && s.Icfg_obj.Symbol.name = old
                 then { s with Icfg_obj.Symbol.name = fresh }
                 else s)
               bin.Binary.symbols)
        in
        Some ({ bin with Binary.symbols = symbols }, old)

type run = {
  r_outcome : Vm.outcome;
  r_cycles : int;
  r_output : int list;
  r_traps : int;
  r_icache_misses : int;
  r_steps : int;
}

let measure_config =
  {
    (Vm.default_config ()) with
    Vm.icache =
      Some
        {
          Icfg_runtime.Icache.line_bytes = 64;
          lines = 64 (* a scaled-down 4 KiB L1i for scaled-down programs *);
          miss_cost = 25;
        };
  }

let of_result (r : Vm.result) =
  {
    r_outcome = r.Vm.outcome;
    r_cycles = r.Vm.cycles;
    r_output = r.Vm.output;
    r_traps = r.Vm.trap_hits;
    r_icache_misses = r.Vm.icache_misses;
    r_steps = r.Vm.steps;
  }

let original_vm ?profile bin =
  let config = { measure_config with Vm.profile } in
  Icfg_core.Trace.span "run:original" @@ fun () ->
  Vm.run ~config ~routines:(Runtime_lib.standard ()) bin

let book_original r =
  Icfg_core.Trace.add_vm ~prefix:"vm/original" r;
  of_result r

let run_original bin = book_original (original_vm bin)

(* The runtime library attaches to the rewritten binary as the paper's
   LD_PRELOAD library does (sections 3 and 6): it installs the trap map
   and, when the rewrite asks for them, the RA-translation hooks, and
   binds the standard routines plus counting, RA translation and dynamic
   translation to this rewrite's maps. *)
let run_rewritten ?(counters = Hashtbl.create 16) (rw : Rewriter.t) =
  let translate = Some (Runtime_lib.Ra_map.translate rw.Rewriter.rw_ra_map) in
  let config =
    {
      measure_config with
      Vm.trap_map = rw.Rewriter.rw_trap_map;
      translate = (if rw.Rewriter.rw_translate_hook then translate else None);
      go_translate = (if rw.Rewriter.rw_go_hook then translate else None);
    }
  in
  let key_of site =
    Option.value ~default:site
      (Hashtbl.find_opt rw.Rewriter.rw_counter_of_site site)
  in
  let dyn_translate vm =
    let lb = Vm.load_base vm in
    match Hashtbl.find_opt rw.Rewriter.rw_dt_sites (Vm.pc vm - lb) with
    | None -> Vm.abort vm "dynamic translation: unknown site"
    | Some reg -> (
        match rw.Rewriter.rw_relocated_entry (Vm.reg vm reg - lb) with
        | Some reloc -> Vm.set_reg vm reg (reloc + lb)
        | None -> ())
  in
  let routines =
    Runtime_lib.standard ()
    @ [
        Runtime_lib.count_routine counters ~key_of;
        Runtime_lib.translate_r0_routine rw.Rewriter.rw_ra_map;
        (Icfg_obj.Abi.dyn_translate, dyn_translate);
      ]
  in
  let r =
    Icfg_core.Trace.span "run:rewritten" @@ fun () ->
    Vm.run ~config ~routines rw.Rewriter.rw_binary
  in
  Icfg_core.Trace.add_vm ~prefix:"vm/rewritten" r;
  of_result r

type judgement = Verified of float | Diverged | Crashed of string

(* The one rule for a rewritten run: it must halt with the original's
   output, and its overhead is its cycle increase over the original run,
   in percent. *)
let judge ~orig r =
  match r.r_outcome with
  | Vm.Crashed m -> Crashed m
  | Vm.Halted when r.r_output <> orig.r_output -> Diverged
  | Vm.Halted ->
      Verified
        (Icfg_trace.Stats.ratio_pct ~base:orig.r_cycles ~value:r.r_cycles)

type problem =
  | Original_crashed of string
  | Rewritten_crashed of string
  | Output_mismatch
  | Count_mismatch of { block : int; expected : int; got : int }

let pp_problem ppf = function
  | Original_crashed m -> Format.fprintf ppf "original crashed: %s" m
  | Rewritten_crashed m -> Format.fprintf ppf "rewritten crashed: %s" m
  | Output_mismatch -> Format.fprintf ppf "observable output differs"
  | Count_mismatch { block; expected; got } ->
      Format.fprintf ppf
        "block 0x%x executed %d times but instrumentation counted %d" block
        expected got

type strong = {
  st_problems : problem list;
  st_blocks_checked : int;
  st_blocks_executed : int;
  st_orig : run;
  st_rewritten : run;
  st_stats : Rewriter.stats;
}

let strong_test ?fm ?(options = Rewriter.default_options) bin =
  let options =
    {
      options with
      Rewriter.payload = Rewriter.P_count;
      granularity = Rewriter.G_block;
      overwrite_original = true;
    }
  in
  let p = parse ?fm bin in
  let rw = Rewriter.rewrite ~options p in
  (* The Vm profiles only the keys already in the table: seed it with
     every block start the parse found. *)
  let profile = Hashtbl.create 512 in
  List.iter
    (fun (fa : Parse.func_analysis) ->
      List.iter
        (fun (b : Cfg.block) -> Hashtbl.replace profile b.Cfg.b_start 0)
        fa.Parse.fa_cfg.Cfg.blocks)
    p.Parse.funcs;
  let orig = book_original (original_vm ~profile bin) in
  let counters = Hashtbl.create 512 in
  let r = run_rewritten ~counters rw in
  let problems =
    match (orig.r_outcome, judge ~orig r) with
    | Vm.Crashed m, Crashed m' -> [ Original_crashed m; Rewritten_crashed m' ]
    | Vm.Crashed m, (Verified _ | Diverged) -> [ Original_crashed m ]
    | Vm.Halted, Crashed m -> [ Rewritten_crashed m ]
    | Vm.Halted, Diverged -> [ Output_mismatch ]
    | Vm.Halted, Verified _ -> []
  in
  (* Counts are compared only when both runs agree, and only for the
     functions the rewrite relocated: those are the ones it instrumented. *)
  let checked =
    Icfg_core.Trace.span "check-counts" @@ fun () ->
    if problems <> [] then []
    else
      List.concat_map
        (fun (fa : Parse.func_analysis) ->
          if rw.Rewriter.rw_relocated_entry fa.Parse.fa_sym.Icfg_obj.Symbol.addr
             = None
          then []
          else
            List.map
              (fun (b : Cfg.block) ->
                let count tbl =
                  Option.value ~default:0 (Hashtbl.find_opt tbl b.Cfg.b_start)
                in
                (b.Cfg.b_start, count profile, count counters))
              fa.Parse.fa_cfg.Cfg.blocks)
        p.Parse.funcs
  in
  {
    st_problems =
      problems
      @ List.filter_map
          (fun (block, expected, got) ->
            if expected = got then None
            else Some (Count_mismatch { block; expected; got }))
          checked;
    st_blocks_checked = List.length checked;
    st_blocks_executed =
      List.length (List.filter (fun (_, expected, _) -> expected > 0) checked);
    st_orig = orig;
    st_rewritten = r;
    st_stats = rw.Rewriter.rw_stats;
  }

type verdict = {
  v_pass : bool;
  v_reason : string;
  v_overhead_pct : float;
  v_coverage_pct : float;
  v_size_pct : float;
  v_traps : int;
}

let evaluate ~orig ~coverage outcome =
  let coverage_pct = 100. *. coverage in
  match outcome with
  | Baseline.Refused reason ->
      {
        v_pass = false;
        v_reason = reason;
        v_overhead_pct = 0.;
        v_coverage_pct = coverage_pct;
        v_size_pct = 0.;
        v_traps = 0;
      }
  | Baseline.Rewritten rw ->
      let r = run_rewritten rw in
      let s = rw.Rewriter.rw_stats in
      let pass, reason, overhead_pct =
        match judge ~orig r with
        | Verified pct -> (true, "", pct)
        | Diverged -> (false, "output mismatch", 0.)
        | Crashed m -> (false, m, 0.)
      in
      {
        v_pass = pass;
        v_reason = reason;
        v_overhead_pct = overhead_pct;
        v_coverage_pct = coverage_pct;
        v_size_pct =
          Icfg_trace.Stats.ratio_pct ~base:s.Rewriter.s_orig_size
            ~value:s.Rewriter.s_new_size;
        v_traps = r.r_traps;
      }
