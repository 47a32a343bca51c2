open Icfg_isa
module Binary = Icfg_obj.Binary
module Symbol = Icfg_obj.Symbol

type jt_site =
  | Js_resolved of Jump_table.bound_cause
  | Js_tail_call
  | Js_unresolved of Jump_table.unres * string

type func_analysis = {
  fa_sym : Symbol.t;
  fa_cfg : Cfg.t;
  fa_tables : Jump_table.table list;
  fa_tail_jumps : int list;
  fa_jt_sites : (int * jt_site) list;
  fa_instrumentable : bool;
  fa_fail_reason : string option;
  fa_liveness : Liveness.t;
}

type t = {
  bin : Binary.t;
  fm : Failure_model.t;
  funcs : func_analysis list;
  fptrs : Func_ptr.site list;
  pointer_targets : int list;
}

(* Do the bytes of [lo, hi) decode as pure nop padding? *)
let nop_only bin lo hi =
  let rec go a =
    if a >= hi then true
    else
      match Binary.decode_at bin a with
      | Insn.Nop, len -> go (a + len)
      | _ -> false
      | exception Invalid_argument _ -> false
  in
  go lo

(* SRBI-era tail-call heuristic: frame-teardown instructions appear right
   before the indirect jump. *)
let teardown_before_jump (cfg : Cfg.t) jump =
  match Cfg.block_containing cfg jump with
  | None -> false
  | Some b ->
      List.exists
        (fun (a, insn, _) ->
          a < jump && (match insn with Insn.AddSp n -> n > 0 | _ -> false))
        b.Cfg.b_insns

let analyze_function bin fm (sym : Symbol.t) =
  (* Pass 1: initial CFG and jump-table slices. *)
  let cfg0 = Cfg.build bin sym in
  let slices = List.map (fun j -> (j, Jump_table.slice_jump bin fm cfg0 j)) cfg0.Cfg.ind_jumps in
  let pres =
    List.filter_map
      (fun (_, s) -> match s with Jump_table.S_table p -> Some p | _ -> None)
      slices
  in
  (cfg0, slices, pres)

let finalize_function bin (fm : Failure_model.t) ~known_data fptr_targets
    ((sym : Symbol.t), (cfg0 : Cfg.t), slices) =
  let results =
    List.map
      (fun (j, s) ->
        match s with
        | Jump_table.S_table p ->
            (j, Jump_table.finalize bin fm ~known_data cfg0 p)
        | Jump_table.S_pointer_load ->
            (j, Jump_table.Unresolved (Jump_table.U_pointer_load, "pointer-load"))
        | Jump_table.S_unresolved (u, m) -> (j, Jump_table.Unresolved (u, m)))
      slices
  in
  let tables =
    List.filter_map
      (fun (_, r) ->
        match r with Jump_table.Resolved t -> Some t | _ -> None)
      results
  in
  let unresolved =
    List.filter_map
      (fun (j, r) ->
        match r with Jump_table.Unresolved (u, m) -> Some (j, (u, m)) | _ -> None)
      results
  in
  let jump_table_edges =
    List.map (fun (t : Jump_table.table) -> (t.t_jump, t.t_targets)) tables
  in
  let extra_targets =
    List.filter
      (fun a -> a >= sym.Symbol.addr && a < sym.Symbol.addr + sym.Symbol.size)
      fptr_targets
  in
  let cfg1 = Cfg.build ~extra_targets ~jump_table_edges bin sym in
  (* Classify unresolved jumps. *)
  let table_ranges =
    List.map
      (fun (t : Jump_table.table) ->
        ( t.Jump_table.t_table,
          t.Jump_table.t_table
          + (t.Jump_table.t_count * Insn.width_bytes t.Jump_table.t_width) ))
      (List.filter (fun (t : Jump_table.table) -> t.Jump_table.t_in_code) tables)
  in
  let gap_is_benign (lo, hi) =
    (* Known in-code table data is not a gap; nop padding is benign. *)
    List.exists (fun (tlo, thi) -> lo >= tlo && hi <= thi) table_ranges
    || nop_only bin lo hi
  in
  let tail_jumps, fail_reason =
    if unresolved = [] then ([], None)
    else if fm.layout_tail_call_heuristic then
      if List.for_all gap_is_benign (Cfg.gaps cfg1) then
        (List.map fst unresolved, None)
      else
        ( [],
          Some (snd (snd (List.hd unresolved)) ^ " (function has code gaps)") )
    else
      (* Baseline heuristic: frame tear-down right before the jump. *)
      let tails, fails =
        List.partition (fun (j, _) -> teardown_before_jump cfg1 j) unresolved
      in
      if fails = [] then (List.map fst tails, None)
      else ([], Some (snd (snd (List.hd fails))))
  in
  let instrumentable = fail_reason = None in
  (* Per-site outcome record for coverage attribution: every indirect jump
     resolves to a table (with its bound grading), is accepted as a tail
     call, or stays unresolved with its typed cause. *)
  let jt_sites =
    List.map
      (fun (j, r) ->
        match r with
        | Jump_table.Resolved t -> (j, Js_resolved t.Jump_table.t_bound)
        | Jump_table.Unresolved (u, m) ->
            if List.mem j tail_jumps then (j, Js_tail_call)
            else (j, Js_unresolved (u, m)))
      results
  in
  {
    fa_sym = sym;
    fa_cfg = cfg1;
    fa_tables = tables;
    fa_tail_jumps = tail_jumps;
    fa_jt_sites = jt_sites;
    fa_instrumentable = instrumentable;
    fa_fail_reason = fail_reason;
    fa_liveness = Liveness.analyze cfg1;
  }

(* The stage runner injected by the caller (parallelism and the tracing
   layer live in the core library, above this one). The default runs
   every stage inline and records nothing. *)
type runner = {
  map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list;
  span : 'a. string -> (unit -> 'a) -> 'a;
  count : string -> int -> unit;
}

let inline =
  { map = List.map; span = (fun _ f -> f ()); count = (fun _ _ -> ()) }

let parse ?(fm = Failure_model.ours) ?runner:(r = inline) bin =
  r.span "parse" @@ fun () ->
  let syms = Binary.func_symbols bin in
  (* Pass 1 over every function: slices for global known-data collection.
     Per-function analysis only reads the (immutable) binary, so both
     per-function passes fan out through the runner. *)
  let pass1 =
    r.span "pass1" (fun () ->
        r.map
          (fun sym ->
            let cfg0, slices, pres = analyze_function bin fm sym in
            ((sym, cfg0, slices), pres))
          syms)
  in
  let all_pres = List.concat_map snd pass1 in
  let known_data =
    r.span "known-data" (fun () -> Jump_table.known_data bin all_pres)
  in
  (* Function pointers need CFGs; use the pass-1 CFGs (pointer creation
     sites live in code reachable without jump-table edges, and case-body
     sites are found after the final CFG rebuild below if needed). The
     per-CFG scans go through the same runner as the per-function passes;
     only the data-slot pass stays serial. *)
  let cfg0s = List.map (fun ((_, c, _), _) -> c) pass1 in
  let fptrs =
    r.span "func-ptr" (fun () -> Func_ptr.analyze ~map:r.map bin fm cfg0s)
  in
  let pointer_targets = Func_ptr.derived_block_targets fptrs in
  let funcs =
    r.span "finalize" (fun () ->
        r.map
          (fun ((sym, cfg0, slices), _) ->
            finalize_function bin fm ~known_data pointer_targets
              (sym, cfg0, slices))
          pass1)
  in
  (* Second function-pointer pass over the final CFGs (covers pointer
     materializations inside switch-case blocks). *)
  let fptrs =
    r.span "func-ptr-2" (fun () ->
        Func_ptr.analyze ~map:r.map bin fm (List.map (fun f -> f.fa_cfg) funcs))
  in
  let pointer_targets = Func_ptr.derived_block_targets fptrs in
  let t = { bin; fm; funcs; fptrs; pointer_targets } in
  r.count "parse/funcs" (List.length t.funcs);
  r.count "parse/instrumentable"
    (List.length (List.filter (fun f -> f.fa_instrumentable) t.funcs));
  r.count "parse/jump-tables"
    (List.fold_left (fun n f -> n + List.length f.fa_tables) 0 t.funcs);
  r.count "parse/tail-jumps"
    (List.fold_left (fun n f -> n + List.length f.fa_tail_jumps) 0 t.funcs);
  r.count "parse/known-data-addrs" (List.length known_data);
  r.count "parse/fptr-sites" (List.length t.fptrs);
  r.count "parse/pointer-targets" (List.length t.pointer_targets);
  t

let func t name =
  List.find_opt (fun f -> f.fa_sym.Symbol.name = name) t.funcs

let func_at t addr =
  List.find_opt
    (fun f ->
      addr >= f.fa_sym.Symbol.addr
      && addr < f.fa_sym.Symbol.addr + f.fa_sym.Symbol.size)
    t.funcs

let instrumentable_count t =
  List.length (List.filter (fun f -> f.fa_instrumentable) t.funcs)

let total_funcs t = List.length t.funcs

let coverage t =
  if t.funcs = [] then 1.0
  else float_of_int (instrumentable_count t) /. float_of_int (total_funcs t)

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d/%d functions instrumentable (%.2f%%), %d fptr sites@."
    t.bin.Binary.name (instrumentable_count t) (total_funcs t)
    (100. *. coverage t)
    (List.length t.fptrs);
  List.iter
    (fun f ->
      match f.fa_fail_reason with
      | Some r ->
          Format.fprintf ppf "  uninstrumentable %s: %s@." f.fa_sym.Symbol.name r
      | None -> ())
    t.funcs
