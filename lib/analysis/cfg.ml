open Icfg_isa
module Binary = Icfg_obj.Binary
module Symbol = Icfg_obj.Symbol
module Section = Icfg_obj.Section

type edge_kind = E_fallthrough | E_branch | E_jump_table of int

type block = {
  b_start : int;
  b_end : int;
  b_insns : (int * Insn.t * int) list;
}

type t = {
  fsym : Symbol.t;
  blocks : block list;
  succs : (int, (int * edge_kind) list) Hashtbl.t;
  preds : (int, int list) Hashtbl.t;
  calls : (int * int option) list;
  ind_jumps : int list;
  tail_targets : int list;
}

(* Edges already added, as [src * n + dst] offsets times three plus the
   kind (a jump-table edge's table is always its source jump). *)
module Edge_set = Hashtbl.Make (Int)

let kind_code = function E_fallthrough -> 0 | E_branch -> 1 | E_jump_table _ -> 2

let build ?(extra_targets = []) ?(jump_table_edges = []) bin (fsym : Symbol.t) =
  let lo = fsym.addr and hi = fsym.addr + fsym.size in
  let in_range a = a >= lo && a < hi in
  let jt_tbl = Hashtbl.create 4 in
  List.iter (fun (j, ts) -> Hashtbl.replace jt_tbl j ts) jump_table_edges;
  (* Per-instruction tables, indexed by offset into the function: the
     decoded instruction and its length (0 = not decoded), the leader flag,
     and the instruction's out-edges, most recent first. They stop where
     the last executable section ends, since nothing past it decodes: a
     symbol whose size overshoots its code costs no more than its code.
     Every edge is followed as soon as it is added, so an edge past the
     tables needs no slot: decoding its target raises. *)
  let code_hi =
    List.fold_left
      (fun m (s : Section.t) ->
        if s.Section.perm.execute then max m (Section.end_vaddr s) else m)
      lo bin.Binary.sections
  in
  let n = max 0 (min hi code_hi - lo) in
  let in_table a = a >= lo && a < lo + n in
  let insn_at = Array.make n Insn.Nop in
  let len_at = Bytes.make n '\000' in
  let decoded a = in_table a && Bytes.get_uint8 len_at (a - lo) <> 0 in
  let leader = Bytes.make n '\000' in
  let is_leader a = in_table a && Bytes.get leader (a - lo) <> '\000' in
  let add_leader a = if in_table a then Bytes.set leader (a - lo) '\001' in
  let edges_at = Array.make n [] in
  let seen = Edge_set.create 16 in
  let add_edge src dst kind =
    if in_table dst then (
      add_leader dst;
      let key = ((((src - lo) * n) + (dst - lo)) * 3) + kind_code kind in
      if not (Edge_set.mem seen key) then (
        Edge_set.add seen key ();
        edges_at.(src - lo) <- (dst, kind) :: edges_at.(src - lo)))
  in
  let decode = Binary.decoder bin lo in
  let calls = ref [] in
  let ind_jumps = ref [] in
  let tail_targets = ref [] in
  let rec traverse addr =
    if in_range addr && not (decoded addr) then (
      let insn, len = decode addr in
      insn_at.(addr - lo) <- insn;
      Bytes.set_uint8 len_at (addr - lo) len;
      let next = addr + len in
      match insn with
      | Jmp d ->
          let target = addr + d in
          if in_range target then (
            add_edge addr target E_branch;
            traverse target)
          else tail_targets := target :: !tail_targets
      | Jcc (_, d) ->
          let target = addr + d in
          (if in_range target then (
             add_edge addr target E_branch;
             traverse target)
           else tail_targets := target :: !tail_targets);
          add_edge addr next E_fallthrough;
          add_leader next;
          traverse next
      | Call d ->
          calls := (addr, Some (addr + d)) :: !calls;
          add_edge addr next E_fallthrough;
          add_leader next;
          traverse next
      | IndCall _ | IndCallMem _ ->
          calls := (addr, None) :: !calls;
          add_edge addr next E_fallthrough;
          add_leader next;
          traverse next
      | CallRt _ ->
          add_edge addr next E_fallthrough;
          add_leader next;
          traverse next
      | IndJmp _ ->
          ind_jumps := addr :: !ind_jumps;
          List.iter
            (fun t ->
              if in_range t then (
                add_edge addr t (E_jump_table addr);
                traverse t))
            (Option.value ~default:[] (Hashtbl.find_opt jt_tbl addr))
      | Ret | Halt | Throw | Trap | Illegal | Btar -> ()
      | _ -> traverse next)
  in
  add_leader lo;
  traverse lo;
  List.iter
    (fun a ->
      if in_range a then (
        add_leader a;
        traverse a))
    extra_targets;
  List.iter
    (fun (j, ts) ->
      if decoded j then
        List.iter
          (fun t ->
            if in_range t then (
              add_leader t;
              add_edge j t (E_jump_table j);
              traverse t))
          ts)
    jump_table_edges;
  (* Landing pads are reached by the unwinder; make them leaders too. *)
  (match Icfg_obj.Ehframe.find bin.Binary.eh_frame lo with
  | Some fde ->
      List.iter
        (fun (_, _, h) ->
          if in_range h then (
            add_leader h;
            traverse h))
        fde.Icfg_obj.Ehframe.landing_pads
  | None -> ());
  (* Form blocks by walking decode chains from each leader. *)
  let collect start =
    let rec go addr acc =
      if not (decoded addr) then (List.rev acc, addr)
      else
        let insn = insn_at.(addr - lo) in
        let len = Bytes.get_uint8 len_at (addr - lo) in
        let acc = (addr, insn, len) :: acc in
        let next = addr + len in
        if Insn.is_terminator insn then (List.rev acc, next)
        else if is_leader next then (List.rev acc, next)
        else go next acc
    in
    let insns, b_end = go start [] in
    { b_start = start; b_end; b_insns = insns }
  in
  let blocks = ref [] in
  for a = lo + n - 1 downto lo do
    if is_leader a && decoded a then blocks := collect a :: !blocks
  done;
  let blocks = !blocks in
  (* Map instruction-level edges to block-level ones. *)
  let succs = Hashtbl.create 16 and preds = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let out =
        List.concat_map
          (fun (addr, insn, len) ->
            let direct = edges_at.(addr - lo) in
            (* Fall-through off the end of a block into the next leader. *)
            let fall =
              if
                addr + len = b.b_end
                && (not (Insn.is_terminator insn))
                && decoded b.b_end
              then [ (b.b_end, E_fallthrough) ]
              else []
            in
            direct @ fall)
          b.b_insns
      in
      Hashtbl.replace succs b.b_start out;
      List.iter
        (fun (dst, _) ->
          Hashtbl.replace preds dst
            (b.b_start :: Option.value ~default:[] (Hashtbl.find_opt preds dst)))
        out)
    blocks;
  {
    fsym;
    blocks;
    succs;
    preds;
    calls = List.rev !calls;
    ind_jumps = List.rev !ind_jumps;
    tail_targets = List.sort_uniq compare !tail_targets;
  }

let block_at t a = List.find_opt (fun b -> b.b_start = a) t.blocks
let block_containing t a =
  List.find_opt (fun b -> a >= b.b_start && a < b.b_end) t.blocks

let entry_block t =
  match block_at t t.fsym.Symbol.addr with
  | Some b -> b
  | None -> invalid_arg ("Cfg: no entry block for " ^ t.fsym.Symbol.name)

let successors t a = Option.value ~default:[] (Hashtbl.find_opt t.succs a)
let predecessors t a = Option.value ~default:[] (Hashtbl.find_opt t.preds a)

let covered_ranges t =
  let ranges =
    List.concat_map
      (fun b -> List.map (fun (a, _, l) -> (a, a + l)) b.b_insns)
      t.blocks
  in
  let sorted = List.sort compare ranges in
  let rec merge = function
    | (a1, e1) :: (a2, e2) :: rest when a2 <= e1 ->
        merge ((a1, max e1 e2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge sorted

let gaps t =
  let lo = t.fsym.Symbol.addr and hi = t.fsym.Symbol.addr + t.fsym.Symbol.size in
  let covered = covered_ranges t in
  let rec go pos = function
    | [] -> if pos < hi then [ (pos, hi) ] else []
    | (a, e) :: rest ->
        let before = if pos < a then [ (pos, a) ] else [] in
        before @ go (max pos e) rest
  in
  go lo covered

let terminator b =
  match List.rev b.b_insns with
  | ((_, insn, _) as last) :: _ when Insn.is_terminator insn -> Some last
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "CFG %s [0x%x, 0x%x): %d blocks@." t.fsym.Symbol.name
    t.fsym.Symbol.addr
    (t.fsym.Symbol.addr + t.fsym.Symbol.size)
    (List.length t.blocks);
  List.iter
    (fun b ->
      Format.fprintf ppf "  block [0x%x, 0x%x) -> %s@." b.b_start b.b_end
        (String.concat ", "
           (List.map
              (fun (d, _) -> Printf.sprintf "0x%x" d)
              (successors t b.b_start))))
    t.blocks
