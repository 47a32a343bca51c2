open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section

(* ------------------------------------------------------------------ *)
(* Symbolic expressions for backward slicing                           *)
(* ------------------------------------------------------------------ *)

(* Constants carry provenance: the addresses of the instructions that
   contributed them, so the rewriter knows what to patch when cloning. *)
type sym =
  | SReg of Reg.t
  | SStack of int  (** value spilled at [sp + off] *)
  | SConst of int * int list
  | SAdd of sym * sym
  | SMul of sym * int
  | STableLoad of Insn.width * sym * int * Reg.t * int
      (** [STableLoad (w, base, scale, idx_reg, load_addr)] *)
  | SMemLoad of Insn.width * sym  (** plain pointer load *)
  | SOrlo of sym * int
  | STop
  | STopSpill
      (** top introduced by an untracked stack spill ([track_spills] off);
          behaves exactly like [STop] but keeps the failure attributable *)

let rec simplify = function
  | SAdd (a, b) -> (
      match (simplify a, simplify b) with
      | SConst (x, p1), SConst (y, p2) -> SConst (x + y, p1 @ p2)
      | SConst _ as c, other -> simp_add other c
      | a', b' -> simp_add a' b')
  | SMul (a, m) -> (
      match simplify a with
      | SConst (x, p) -> SConst (x * m, p)
      | SMul (inner, m') -> SMul (inner, m * m')
      | a' -> SMul (a', m))
  | SOrlo (a, lo) -> (
      match simplify a with
      | SConst (x, p) -> SConst (x lor (lo land 0xffff), p)
      | a' -> SOrlo (a', lo))
  | STableLoad (w, b, s, i, l) -> STableLoad (w, simplify b, s, i, l)
  | SMemLoad (w, a) -> SMemLoad (w, simplify a)
  | (SReg _ | SStack _ | SConst _ | STop | STopSpill) as e -> e

and simp_add a b =
  (* Normalize constants to the right and re-associate. *)
  match (a, b) with
  | SAdd (x, (SConst _ as c1)), (SConst _ as c2) ->
      simplify (SAdd (x, SAdd (c1, c2)))
  | (SConst _ as c), other -> SAdd (other, c)
  | a, b -> SAdd (a, b)

let rec contains_reg r = function
  | SReg r' -> Reg.equal r r'
  | SAdd (a, b) -> contains_reg r a || contains_reg r b
  | SMul (a, _) | SOrlo (a, _) | SMemLoad (_, a) -> contains_reg r a
  | STableLoad (_, b, _, _, _) -> contains_reg r b
  | SStack _ | SConst _ | STop | STopSpill -> false

let rec subst_reg r repl = function
  | SReg r' when Reg.equal r r' -> repl
  | SAdd (a, b) -> SAdd (subst_reg r repl a, subst_reg r repl b)
  | SMul (a, m) -> SMul (subst_reg r repl a, m)
  | SOrlo (a, lo) -> SOrlo (subst_reg r repl a, lo)
  | SMemLoad (w, a) -> SMemLoad (w, subst_reg r repl a)
  | STableLoad (w, b, s, i, l) -> STableLoad (w, subst_reg r repl b, s, i, l)
  | (SReg _ | SStack _ | SConst _ | STop | STopSpill) as e -> e

let rec subst_stack off repl = function
  | SStack o when o = off -> repl
  | SAdd (a, b) -> SAdd (subst_stack off repl a, subst_stack off repl b)
  | SMul (a, m) -> SMul (subst_stack off repl a, m)
  | SOrlo (a, lo) -> SOrlo (subst_stack off repl a, lo)
  | SMemLoad (w, a) -> SMemLoad (w, subst_stack off repl a)
  | STableLoad (w, b, s, i, l) -> STableLoad (w, subst_stack off repl b, s, i, l)
  | (SReg _ | SStack _ | SConst _ | STop | STopSpill) as e -> e

let rec has_unknowns = function
  | SReg _ | SStack _ -> true
  | STop | STopSpill -> false
  | SAdd (a, b) -> has_unknowns a || has_unknowns b
  | SMul (a, _) | SOrlo (a, _) | SMemLoad (_, a) -> has_unknowns a
  | STableLoad (_, b, _, _, _) -> has_unknowns b
  | SConst _ -> false

let rec has_top = function
  | STop | STopSpill -> true
  | SAdd (a, b) -> has_top a || has_top b
  | SMul (a, _) | SOrlo (a, _) | SMemLoad (_, a) -> has_top a
  | STableLoad (_, b, _, _, _) -> has_top b
  | SReg _ | SStack _ | SConst _ -> false

let rec has_spill_top = function
  | STopSpill -> true
  | STop -> false
  | SAdd (a, b) -> has_spill_top a || has_spill_top b
  | SMul (a, _) | SOrlo (a, _) | SMemLoad (_, a) -> has_spill_top a
  | STableLoad (_, b, _, _, _) -> has_spill_top b
  | SReg _ | SStack _ | SConst _ -> false

(* ------------------------------------------------------------------ *)
(* Backward transfer                                                   *)
(* ------------------------------------------------------------------ *)

let toc_of (bin : Binary.t) = bin.Binary.toc_base

(* Substitute the effect of [insn] (at [addr]) into [expr], walking
   backwards. [fm] gates stack-spill tracking. *)
let back_subst bin (fm : Failure_model.t) addr insn expr =
  let def_subst r repl = subst_reg r (simplify repl) expr in
  match (insn : Insn.t) with
  | Mov (r, Imm n) when contains_reg r expr -> def_subst r (SConst (n, [ addr ]))
  | Mov (r, Reg s) when contains_reg r expr -> def_subst r (SReg s)
  | Movabs (r, v) when contains_reg r expr -> def_subst r (SConst (v, [ addr ]))
  | Lea (r, d) when contains_reg r expr -> def_subst r (SConst (addr + d, [ addr ]))
  | Adrp (r, d) when contains_reg r expr ->
      def_subst r (SConst ((addr land lnot 4095) + d, [ addr ]))
  | Addis (r, rs, hi) when contains_reg r expr ->
      if Reg.equal rs Reg.toc then
        def_subst r (SConst (toc_of bin + (hi lsl 16), [ addr ]))
      else def_subst r (SAdd (SReg rs, SConst (hi lsl 16, [ addr ])))
  | Movhi (r, hi) when contains_reg r expr ->
      def_subst r (SConst (hi lsl 16, [ addr ]))
  | Orlo (r, lo) when contains_reg r expr -> subst_reg r (SOrlo (SReg r, lo)) expr
  | Add (r, Imm n) when contains_reg r expr ->
      subst_reg r (SAdd (SReg r, SConst (n, [ addr ]))) expr
  | Add (r, Reg s) when contains_reg r expr ->
      subst_reg r (SAdd (SReg r, SReg s)) expr
  | Sub (r, Imm n) when contains_reg r expr ->
      subst_reg r (SAdd (SReg r, SConst (-n, [ addr ]))) expr
  | Shl (r, k) when contains_reg r expr -> subst_reg r (SMul (SReg r, 1 lsl k)) expr
  | LoadIdx (w, r, rb, ri, s) when contains_reg r expr ->
      def_subst r (STableLoad (w, SReg rb, s, ri, addr))
  | Load (_, r, BSp, off) when contains_reg r expr ->
      if fm.track_spills then def_subst r (SStack off)
      else def_subst r STopSpill
  | Load (w, r, BReg rb, d) when contains_reg r expr ->
      def_subst r (SMemLoad (w, SAdd (SReg rb, SConst (d, []))))
  | Store (W64, BSp, off, rs) -> simplify (subst_stack off (SReg rs) expr)
  | _ ->
      (* Any other definition of a register in the expression is opaque. *)
      let defs = Insn.defs insn in
      Reg.Set.fold (fun r e -> subst_reg r STop e) defs expr

(* ------------------------------------------------------------------ *)
(* Slicing                                                             *)
(* ------------------------------------------------------------------ *)

type pre_table = {
  p_jump : int;
  p_load : int;
  p_width : Insn.width;
  p_scale : int;
  p_index : Reg.t;
  p_table : int;
  p_table_prov : int list;
  p_base : (int * int list) option;
  p_mult : int;
  p_in_code : bool;
  p_guard : int option;  (** entry count from the range-check guard *)
}

(* Typed failure kinds backing the attribution layer's cause taxonomy: each
   [Unresolved] carries the machine-readable kind alongside the human
   message, so reports never have to parse message strings. *)
type unres =
  | U_spill  (** slice hit an untracked stack spill (track_spills off) *)
  | U_join  (** slice crossed a join point *)
  | U_opaque  (** opaque computation in the slice *)
  | U_base_writable  (** table base resolved into writable memory *)
  | U_base_unknown  (** table base is not a constant *)
  | U_no_bound  (** no range-check guard to bound the table *)
  | U_no_targets  (** every candidate entry was infeasible *)
  | U_pointer_load  (** plain pointer load — indirect tail-call shape *)
  | U_bad_jump  (** the jump itself could not be analyzed *)

(* How the final entry count relates to the range-check guard: exact, or
   perturbed by the injected over-/under-approximation policy (after the
   known-data clamp). The graded-failure taxonomy of section 4.3. *)
type bound_cause = B_exact | B_over | B_under

type slice =
  | S_table of pre_table
  | S_pointer_load
  | S_unresolved of unres * string

type table = {
  t_jump : int;
  t_load : int;
  t_width : Insn.width;
  t_scale : int;
  t_index : Reg.t;
  t_table : int;
  t_base : int option;
  t_base_tied : bool;
  t_mult : int;
  t_count : int;
  t_entries : int list;
  t_slots : int option list;
  t_targets : int list;
  t_mater : int list;
  t_in_code : bool;
  t_bound : bound_cause;
}

let pre_table_addr p = p.p_table

(* Find the range-check guard [cmp idx, n; jcc ge ...] in the blocks
   leading to the dispatch block. *)
let find_guard (cfg : Cfg.t) dispatch_start idx =
  let check_block (b : Cfg.block) =
    let rec scan = function
      | (_, Insn.Cmp (r, Imm n), _) :: (_, Insn.Jcc (Insn.Ge, _), _) :: _
        when Reg.equal r idx && n > 0 ->
          Some n
      | _ :: rest -> scan rest
      | [] -> None
    in
    scan b.Cfg.b_insns
  in
  let rec up addr depth =
    if depth > 3 then None
    else
      match Cfg.block_at cfg addr with
      | None -> None
      | Some b -> (
          match check_block b with
          | Some n -> Some n
          | None -> (
              match Cfg.predecessors cfg addr with
              | [ p ] -> up p (depth + 1)
              | _ -> None))
  in
  up dispatch_start 0

let slice_jump bin fm (cfg : Cfg.t) jump_addr =
  match Cfg.block_containing cfg jump_addr with
  | None -> S_unresolved (U_bad_jump, "indirect jump not in any block")
  | Some block -> (
      let jump_insn =
        List.find_opt (fun (a, _, _) -> a = jump_addr) block.Cfg.b_insns
      in
      match jump_insn with
      | Some (_, Insn.IndJmp r, _) -> (
          (* Walk backwards through this block (and unique predecessors). *)
          let rec walk expr insns_rev cur_block depth =
            let expr =
              List.fold_left
                (fun e (a, i, _) ->
                  if has_unknowns e then simplify (back_subst bin fm a i e) else e)
                expr insns_rev
            in
            if not (has_unknowns expr) then Some expr
            else if depth >= 4 then None
            else
              match Cfg.predecessors cfg cur_block with
              | [ p ] -> (
                  match Cfg.block_at cfg p with
                  | Some pb -> walk expr (List.rev pb.Cfg.b_insns) p (depth + 1)
                  | None -> None)
              | _ -> Some expr (* stop: leave residual unknowns *)
          in
          let before_jump =
            List.filter (fun (a, _, _) -> a < jump_addr) block.Cfg.b_insns
          in
          let expr =
            walk (SReg r) (List.rev before_jump) block.Cfg.b_start 0
          in
          match expr with
          | None -> S_unresolved (U_join, "slice crossed a join point")
          | Some expr -> (
              let expr = simplify expr in
              if has_top expr || has_unknowns expr then
                if has_spill_top expr then
                  S_unresolved (U_spill, "untracked stack spill in slice")
                else S_unresolved (U_opaque, "opaque computation in slice")
              else
                let classify w base_sym scale idx load base =
                  match base_sym with
                  | SConst (t, prov) ->
                      let in_code =
                        match Binary.section_at bin t with
                        | Some s -> s.Section.perm.Section.execute
                        | None -> false
                      in
                      let writable =
                        match Binary.section_at bin t with
                        | Some s -> s.Section.perm.Section.write
                        | None -> true
                      in
                      if writable then
                        S_unresolved
                          (U_base_writable, "table base in writable memory")
                      else
                        S_table
                          {
                            p_jump = jump_addr;
                            p_load = load;
                            p_width = w;
                            p_scale = scale;
                            p_index = idx;
                            p_table = t;
                            p_table_prov = prov;
                            p_base = base;
                            p_mult =
                              (match base with Some _ -> 1 | None -> 1);
                            p_in_code = in_code;
                            p_guard = find_guard cfg block.Cfg.b_start idx;
                          }
                  | _ ->
                      S_unresolved (U_base_unknown, "table base is not constant")
                in
                match expr with
                | STableLoad (w, base_sym, s, idx, load) ->
                    classify w base_sym s idx load None
                | SAdd (STableLoad (w, base_sym, s, idx, load), SConst (b, bp)) ->
                    classify w base_sym s idx load (Some (b, bp))
                | SAdd (SMul (STableLoad (w, base_sym, s, idx, load), m), SConst (b, bp))
                  -> (
                    match classify w base_sym s idx load (Some (b, bp)) with
                    | S_table p -> S_table { p with p_mult = m }
                    | other -> other)
                | SMemLoad _ -> S_pointer_load
                | _ ->
                    S_unresolved
                      (U_opaque, "unrecognized jump-target expression")))
      | Some _ -> S_unresolved (U_bad_jump, "not an indirect jump")
      | None -> S_unresolved (U_bad_jump, "jump address not decoded"))

(* ------------------------------------------------------------------ *)
(* Bounds and finalization                                             *)
(* ------------------------------------------------------------------ *)

let known_data bin pres =
  let tables = List.map (fun p -> p.p_table) pres in
  let section_ends =
    List.concat_map
      (fun (s : Section.t) -> [ s.Section.vaddr; Section.end_vaddr s ])
      bin.Binary.sections
  in
  List.sort_uniq compare (tables @ section_ends)

type result = Resolved of table | Unresolved of unres * string

(* The bound-and-read step of [finalize]: the entry count that the guard,
   the bound policy and the known-data clamp settle on, and the table word
   at each of those entries ([None] where a word is not mapped). These
   words are the only image bytes [finalize] reads, and which words they
   are depends only on [p], [fm] and [known_data] — so a cached finalize
   keys on exactly this list ({!Parse}). [None] when no bound can be
   inferred. *)
let table_words bin (fm : Failure_model.t) ~known_data p =
  let entry_bytes = Insn.width_bytes p.p_width in
  let count =
    match (p.p_guard, fm.bound_policy) with
    | Some n, Failure_model.Bound_guard -> Some n
    | Some n, Failure_model.Bound_under k -> Some (max 1 (n - k))
    | Some n, Failure_model.Bound_over k -> Some (n + k)
    | None, _ -> None
  in
  Option.map
    (fun count ->
      (* Assumption 2: never let the table run into known non-table data or
         another jump table. *)
      let count =
        if fm.extend_to_known_data then
          let next_boundary =
            List.fold_left
              (fun acc d -> if d > p.p_table && d < acc then d else acc)
              max_int known_data
          in
          let cap = (next_boundary - p.p_table) / entry_bytes in
          min count (max 1 cap)
        else count
      in
      List.init count (fun i ->
          try Some (Binary.read bin (p.p_table + (i * entry_bytes)) p.p_width)
          with Invalid_argument _ -> None))
    count

let finalize bin (fm : Failure_model.t) ~known_data (cfg : Cfg.t) p =
  match table_words bin fm ~known_data p with
  | None -> Unresolved (U_no_bound, "cannot infer the table bound")
  | Some words ->
      let flo = cfg.Cfg.fsym.Icfg_obj.Symbol.addr in
      let fhi = flo + cfg.Cfg.fsym.Icfg_obj.Symbol.size in
      let entries = List.filter_map Fun.id words in
      let raw_targets =
        List.map
          (fun x ->
            match p.p_base with
            | Some (b, _) -> b + (p.p_mult * x)
            | None -> x)
          entries
      in
      (* Sanity-screen targets that cannot be code in this function; keep
         positions so a cloned table stays index-compatible. *)
      let slots =
        List.map2
          (fun _ t -> if t >= flo && t < fhi then Some t else None)
          entries raw_targets
      in
      let targets = List.filter_map (fun x -> x) slots in
      if targets = [] then
        Unresolved (U_no_targets, "no feasible targets")
      else
        let base_tied =
          match p.p_base with
          | Some (_, bp) -> List.sort compare bp = List.sort compare p.p_table_prov
          | None -> false
        in
        Resolved
          {
            t_jump = p.p_jump;
            t_load = p.p_load;
            t_width = p.p_width;
            t_scale = p.p_scale;
            t_index = p.p_index;
            t_table = p.p_table;
            t_base = Option.map fst p.p_base;
            t_base_tied = base_tied;
            t_mult = p.p_mult;
            t_count = List.length slots;
            t_entries = entries;
            t_slots = slots;
            t_targets = targets;
            t_mater = List.sort_uniq compare p.p_table_prov;
            t_in_code = p.p_in_code;
            t_bound =
              (* Relative to the guard's entry count: the *effective* count
                 (after the policy and the known-data clamp), so a clamp
                 that undoes an injected over-approximation reads as exact. *)
              (match p.p_guard with
              | Some n when List.length slots > n -> B_over
              | Some n when List.length slots < n -> B_under
              | _ -> B_exact);
          }

let analyze bin fm ~known_data:kd (cfg : Cfg.t) =
  List.map
    (fun j ->
      match slice_jump bin fm cfg j with
      | S_table p -> (j, finalize bin fm ~known_data:kd cfg p)
      | S_pointer_load -> (j, Unresolved (U_pointer_load, "pointer-load"))
      | S_unresolved (u, msg) -> (j, Unresolved (u, msg)))
    cfg.Cfg.ind_jumps
