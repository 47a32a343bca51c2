module Parse = Icfg_analysis.Parse
module Jump_table = Icfg_analysis.Jump_table
module Func_ptr = Icfg_analysis.Func_ptr
module Symbol = Icfg_obj.Symbol

type cause =
  | Unresolved_indirect_jump
  | Jt_resolved_exact
  | Jt_bound_over
  | Jt_bound_under
  | Jt_tail_call
  | Jt_unresolved_spill
  | Jt_unresolved_join
  | Jt_unresolved_opaque
  | Jt_unresolved_base
  | Jt_unresolved_bound
  | Jt_unresolved_targets
  | Jt_pointer_load
  | Jt_unresolved_jump
  | Fptr_reloc
  | Fptr_no_reloc
  | Fptr_mater
  | Fptr_adjusted
  | Fptr_uninstrumented_target
  | Mode_excluded
  | Cfl_entry
  | Cfl_landing_pad
  | Cfl_jt_target
  | Cfl_ptr_target
  | Cfl_call_fallthrough
  | Cfl_every_block
  | Tramp_short
  | Tramp_long
  | Tramp_hop
  | Trap_no_reach
  | No_scratch_space
  | No_hop_kind
  | Scratch_pool_disabled

let axis = function
  | Unresolved_indirect_jump -> "func"
  | Jt_resolved_exact | Jt_bound_over | Jt_bound_under | Jt_tail_call
  | Jt_unresolved_spill | Jt_unresolved_join | Jt_unresolved_opaque
  | Jt_unresolved_base | Jt_unresolved_bound | Jt_unresolved_targets
  | Jt_pointer_load | Jt_unresolved_jump ->
      "jt"
  | Fptr_reloc | Fptr_no_reloc | Fptr_mater | Fptr_adjusted
  | Fptr_uninstrumented_target | Mode_excluded ->
      "fptr"
  | Cfl_entry | Cfl_landing_pad | Cfl_jt_target | Cfl_ptr_target
  | Cfl_call_fallthrough | Cfl_every_block ->
      "cfl"
  | Tramp_short | Tramp_long | Tramp_hop | Trap_no_reach | No_scratch_space
  | No_hop_kind | Scratch_pool_disabled ->
      "tramp"

let name = function
  | Unresolved_indirect_jump -> "unresolved-indirect-jump"
  | Jt_resolved_exact -> "resolved-exact"
  | Jt_bound_over -> "bound-over"
  | Jt_bound_under -> "bound-under"
  | Jt_tail_call -> "tail-call"
  | Jt_unresolved_spill -> "unresolved-spill"
  | Jt_unresolved_join -> "unresolved-join"
  | Jt_unresolved_opaque -> "unresolved-opaque"
  | Jt_unresolved_base -> "unresolved-base"
  | Jt_unresolved_bound -> "unresolved-bound"
  | Jt_unresolved_targets -> "unresolved-targets"
  | Jt_pointer_load -> "pointer-load"
  | Jt_unresolved_jump -> "unresolved-jump"
  | Fptr_reloc -> "reloc"
  | Fptr_no_reloc -> "no-reloc"
  | Fptr_mater -> "mater"
  | Fptr_adjusted -> "adjusted"
  | Fptr_uninstrumented_target -> "uninstrumented-target"
  | Mode_excluded -> "mode-excluded"
  | Cfl_entry -> "entry"
  | Cfl_landing_pad -> "landing-pad"
  | Cfl_jt_target -> "jt-target"
  | Cfl_ptr_target -> "ptr-target"
  | Cfl_call_fallthrough -> "call-fallthrough"
  | Cfl_every_block -> "every-block"
  | Tramp_short -> "short"
  | Tramp_long -> "long"
  | Tramp_hop -> "hop"
  | Trap_no_reach -> "trap-no-reach"
  | No_scratch_space -> "trap-no-scratch-space"
  | No_hop_kind -> "trap-no-hop-kind"
  | Scratch_pool_disabled -> "trap-pool-disabled"

let key c = axis c ^ "/" ^ name c

let is_trap = function
  | Trap_no_reach | No_scratch_space | No_hop_kind | Scratch_pool_disabled ->
      true
  | _ -> false

type block_site = { bs_addr : int; bs_cfl : cause; bs_place : cause option }

type func_row = {
  fr_name : string;
  fr_addr : int;
  fr_instrumented : bool;
  fr_fail : cause option;
  fr_blocks : int;
  fr_sites : block_site list;
  fr_jt : (int * cause) list;
}

type t = {
  a_mode : Mode.t;
  a_rows : func_row list;
  a_fptr : (int * cause) list;
}

let jt_cause = function
  | Parse.Js_resolved Jump_table.B_exact -> Jt_resolved_exact
  | Parse.Js_resolved Jump_table.B_over -> Jt_bound_over
  | Parse.Js_resolved Jump_table.B_under -> Jt_bound_under
  | Parse.Js_tail_call -> Jt_tail_call
  | Parse.Js_unresolved (u, _) -> (
      match u with
      | Jump_table.U_spill -> Jt_unresolved_spill
      | Jump_table.U_join -> Jt_unresolved_join
      | Jump_table.U_opaque -> Jt_unresolved_opaque
      | Jump_table.U_base_writable | Jump_table.U_base_unknown ->
          Jt_unresolved_base
      | Jump_table.U_no_bound -> Jt_unresolved_bound
      | Jump_table.U_no_targets -> Jt_unresolved_targets
      | Jump_table.U_pointer_load -> Jt_pointer_load
      | Jump_table.U_bad_jump -> Jt_unresolved_jump)

let fptr_site ~mode ~instrumented site =
  let addr, target =
    match site with
    | Func_ptr.Fp_slot { slot; target; _ } -> (slot, target)
    | Func_ptr.Fp_mater { prov; target } ->
        ((match prov with a :: _ -> a | [] -> target), target)
    | Func_ptr.Fp_adjusted { src_slot; target; _ } -> (src_slot, target)
  in
  let cause =
    if not (Mode.rewrites_func_ptrs mode) then Mode_excluded
    else if not (instrumented target) then Fptr_uninstrumented_target
    else
      match site with
      | Func_ptr.Fp_slot { via_reloc = true; _ } -> Fptr_reloc
      | Func_ptr.Fp_slot _ -> Fptr_no_reloc
      | Func_ptr.Fp_mater _ -> Fptr_mater
      | Func_ptr.Fp_adjusted _ -> Fptr_adjusted
  in
  (addr, cause)

let build ~mode ~instrumented ~block_sites ~blocks_of (p : Parse.t) =
  let rows =
    List.map
      (fun (fa : Parse.func_analysis) ->
        let addr = fa.Parse.fa_sym.Symbol.addr in
        let inst = instrumented addr in
        {
          fr_name = fa.Parse.fa_sym.Symbol.name;
          fr_addr = addr;
          fr_instrumented = inst;
          fr_fail =
            (if fa.Parse.fa_instrumentable then None
             else Some Unresolved_indirect_jump);
          fr_blocks = (if inst then blocks_of addr else 0);
          fr_sites =
            (if inst then
               Option.value ~default:[] (List.assoc_opt addr block_sites)
             else []);
          fr_jt = List.map (fun (j, s) -> (j, jt_cause s)) fa.Parse.fa_jt_sites;
        })
      (List.sort
         (fun (a : Parse.func_analysis) b ->
           compare a.Parse.fa_sym.Symbol.addr b.Parse.fa_sym.Symbol.addr)
         p.Parse.funcs)
  in
  let fptr = List.map (fptr_site ~mode ~instrumented) p.Parse.fptrs in
  { a_mode = mode; a_rows = rows; a_fptr = fptr }

(* -------------------------------------------------------------------- *)
(* Rollups                                                               *)
(* -------------------------------------------------------------------- *)

let fold_causes f acc t =
  let acc =
    List.fold_left
      (fun acc r ->
        let acc =
          match r.fr_fail with Some c -> f acc c | None -> acc
        in
        let acc =
          List.fold_left
            (fun acc s ->
              let acc = f acc s.bs_cfl in
              match s.bs_place with Some c -> f acc c | None -> acc)
            acc r.fr_sites
        in
        List.fold_left (fun acc (_, c) -> f acc c) acc r.fr_jt)
      acc t.a_rows
  in
  List.fold_left (fun acc (_, c) -> f acc c) acc t.a_fptr

let histogram t =
  let tbl = Hashtbl.create 32 in
  fold_causes
    (fun () c ->
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    () t;
  List.sort
    (fun (a, _) (b, _) -> compare (key a) (key b))
    (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [])

let count t c =
  Option.value ~default:0 (List.assoc_opt c (histogram t))

let cfl_total t =
  List.fold_left (fun n r -> n + List.length r.fr_sites) 0 t.a_rows

let tramp_total t =
  List.fold_left
    (fun n r ->
      n
      + List.length (List.filter (fun s -> s.bs_place <> None) r.fr_sites))
    0 t.a_rows

let trap_total t =
  List.fold_left
    (fun n r ->
      n
      + List.length
          (List.filter
             (fun s ->
               match s.bs_place with Some c -> is_trap c | None -> false)
             r.fr_sites))
    0 t.a_rows

type delta = { d_cfl : int; d_trampolines : int; d_traps : int }

let delta ~dir t =
  {
    d_cfl = cfl_total t - cfl_total dir;
    d_trampolines = tramp_total t - tramp_total dir;
    d_traps = trap_total t - trap_total dir;
  }

(* -------------------------------------------------------------------- *)
(* Rendering                                                             *)
(* -------------------------------------------------------------------- *)

let pp ppf t =
  let instrumented =
    List.length (List.filter (fun r -> r.fr_instrumented) t.a_rows)
  in
  Format.fprintf ppf "attribution (%s): %d/%d functions, %d cfl blocks, %d \
                      trampolines (%d trap), %d fptr sites@."
    (Mode.name t.a_mode) instrumented (List.length t.a_rows) (cfl_total t)
    (tramp_total t) (trap_total t) (List.length t.a_fptr);
  Format.fprintf ppf "  %-24s %6s %6s %6s %6s  %s@." "function" "blocks" "cfl"
    "tramp" "trap" "fail";
  List.iter
    (fun r ->
      let traps =
        List.length
          (List.filter
             (fun s ->
               match s.bs_place with Some c -> is_trap c | None -> false)
             r.fr_sites)
      in
      Format.fprintf ppf "  %-24s %6d %6d %6d %6d  %s@." r.fr_name r.fr_blocks
        (List.length r.fr_sites)
        (List.length (List.filter (fun s -> s.bs_place <> None) r.fr_sites))
        traps
        (match r.fr_fail with Some c -> key c | None -> "-"))
    t.a_rows;
  Format.fprintf ppf "  causes:@.";
  List.iter
    (fun (c, n) -> Format.fprintf ppf "    %-28s %6d@." (key c) n)
    (histogram t)

let cause_hist_json b causes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    causes;
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> compare (key a) (key b))
      (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [])
  in
  Buffer.add_char b '{';
  List.iteri
    (fun i (c, n) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": %d" (key c) n)
    sorted;
  Buffer.add_char b '}'

let to_json ?dir t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"icfg-report/1\",\n";
  Printf.bprintf b "  \"mode\": \"%s\",\n" (Mode.name t.a_mode);
  Printf.bprintf b "  \"funcs_total\": %d,\n" (List.length t.a_rows);
  Printf.bprintf b "  \"funcs_instrumented\": %d,\n"
    (List.length (List.filter (fun r -> r.fr_instrumented) t.a_rows));
  Printf.bprintf b "  \"cfl_blocks\": %d,\n" (cfl_total t);
  Printf.bprintf b "  \"trampolines\": %d,\n" (tramp_total t);
  Printf.bprintf b "  \"traps\": %d,\n" (trap_total t);
  Printf.bprintf b "  \"fptr_sites\": %d,\n" (List.length t.a_fptr);
  Buffer.add_string b "  \"histogram\": {";
  List.iteri
    (fun i (c, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    \"%s\": %d" (key c) n)
    (histogram t);
  Buffer.add_string b "\n  },\n  \"functions\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    {\"name\": \"%s\", \"addr\": %d, \
                        \"instrumented\": %b, \"fail\": "
        (Icfg_trace.Stats.json_escape r.fr_name) r.fr_addr r.fr_instrumented;
      (match r.fr_fail with
      | Some c -> Printf.bprintf b "\"%s\"" (key c)
      | None -> Buffer.add_string b "null");
      Printf.bprintf b ", \"blocks\": %d, \"cfl_blocks\": %d, \"causes\": "
        r.fr_blocks
        (List.length r.fr_sites);
      let causes =
        (match r.fr_fail with Some c -> [ c ] | None -> [])
        @ List.concat_map
            (fun s ->
              s.bs_cfl :: (match s.bs_place with Some c -> [ c ] | None -> []))
            r.fr_sites
        @ List.map snd r.fr_jt
      in
      cause_hist_json b causes;
      Buffer.add_char b '}')
    t.a_rows;
  Buffer.add_string b "\n  ]";
  (match dir with
  | Some d when t.a_mode <> Mode.Dir ->
      let dl = delta ~dir:d t in
      Printf.bprintf b
        ",\n  \"delta_vs_dir\": {\"cfl_blocks\": %d, \"trampolines\": %d, \
         \"traps\": %d}"
        dl.d_cfl dl.d_trampolines dl.d_traps
  | _ -> ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b
