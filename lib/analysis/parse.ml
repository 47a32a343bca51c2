open Icfg_isa
module Binary = Icfg_obj.Binary
module Symbol = Icfg_obj.Symbol
module Trace = Icfg_trace.Trace

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
  (sym, cfg0, slices)

let pre_tables (_, _, slices) =
  List.filter_map
    (fun (_, s) -> match s with Jump_table.S_table p -> Some p | _ -> None)
    slices

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
  let extra_targets = List.filter (Symbol.contains sym) fptr_targets in
  (* [Cfg.build] is pure, so with no table edge and no pointer target to
     add, rebuilding would return pass 1's CFG again. *)
  let cfg1 =
    if jump_table_edges = [] && extra_targets = [] then cfg0
    else Cfg.build ~extra_targets ~jump_table_edges bin sym
  in
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
  }

let parse ?(fm = Failure_model.ours) bin =
  Trace.span "parse" @@ fun () ->
  let syms = Binary.func_symbols bin in
  (* Pass 1 over every function: slices for global known-data
     collection. *)
  let pass1 =
    Trace.span "pass1" (fun () -> List.map (analyze_function bin fm) syms)
  in
  let all_pres = List.concat_map pre_tables pass1 in
  let known_data =
    Trace.span "known-data" (fun () -> Jump_table.known_data bin all_pres)
  in
  (* Function pointers need CFGs; pass 1's serve here, since pointer
     creation sites live in code reachable without jump-table edges. Each
     function's scan is kept for the second pass. *)
  let fp, scans0, fptrs =
    Trace.span "func-ptr" (fun () ->
        let fp = Func_ptr.data_pass bin fm in
        let scans0 =
          List.map (fun (_, cfg0, _) -> Func_ptr.scan fp cfg0) pass1
        in
        (fp, scans0, Func_ptr.sites fp scans0))
  in
  let finalize targets p1 = finalize_function bin fm ~known_data targets p1 in
  let targets0 = Func_ptr.derived_block_targets fptrs in
  let funcs =
    Trace.span "finalize" (fun () -> List.map (finalize targets0) pass1)
  in
  (* Second function-pointer pass over the final CFGs: it covers pointer
     materializations inside switch-case blocks, which only table edges
     reach. A CFG that finalize kept is pass 1's, so its scan is too; only
     the rebuilt ones are rescanned. A target this pass finds that no
     earlier pass did becomes a leader: the function holding it is
     finalized again with every target found so far, and rescanned, until
     a pass finds nothing new. The union only grows, so this ends, and
     every reported target inside a function starts one of its blocks. *)
  let funcs, fptrs, pointer_targets =
    Trace.span "func-ptr-2" (fun () ->
        (* Each function beside the scan of its final CFG. *)
        let scanned =
          List.map2
            (fun ((_, cfg0, _), s0) f ->
              (f, if f.fa_cfg == cfg0 then s0 else Func_ptr.scan fp f.fa_cfg))
            (List.combine pass1 scans0) funcs
        in
        let rec settle targets scanned =
          let fptrs = Func_ptr.sites fp (List.map snd scanned) in
          match
            List.filter
              (fun a -> not (List.mem a targets))
              (Func_ptr.derived_block_targets fptrs)
          with
          | [] -> (List.map fst scanned, fptrs, targets)
          | fresh ->
              let targets = List.merge compare targets fresh in
              settle targets
                (List.map2
                   (fun ((sym, _, _) as p1) fs ->
                     if List.exists (Symbol.contains sym) fresh then
                       let f = finalize targets p1 in
                       (f, Func_ptr.scan fp f.fa_cfg)
                     else fs)
                   pass1 scanned)
        in
        settle targets0 scanned)
  in
  let t = { bin; fm; funcs; fptrs; pointer_targets } in
  Trace.add "parse/funcs" (List.length t.funcs);
  Trace.add "parse/instrumentable"
    (List.length (List.filter (fun f -> f.fa_instrumentable) t.funcs));
  Trace.add "parse/jump-tables"
    (List.fold_left (fun n f -> n + List.length f.fa_tables) 0 t.funcs);
  Trace.add "parse/tail-jumps"
    (List.fold_left (fun n f -> n + List.length f.fa_tail_jumps) 0 t.funcs);
  Trace.add "parse/known-data-addrs" (List.length known_data);
  Trace.add "parse/fptr-sites" (List.length t.fptrs);
  Trace.add "parse/pointer-targets" (List.length t.pointer_targets);
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
