open Icfg_isa

type aexpr =
  | Const of int
  | Addr of string
  | Diff of string * string * int
  | Diff_const of string * int * int

type item =
  | Insn of Insn.t
  | Jmp_to of string
  | Jcc_to of Insn.cond * string
  | Call_to of string
  | Lea_of of Reg.t * string
  | Adrp_of of Reg.t * string
  | Addlo_page of Reg.t * string
  | Addis_toc of Reg.t * string
  | Addlo_toc of Reg.t * string
  | Movabs_of of Reg.t * string
  | Movhi_of of Reg.t * string
  | Orlo_of of Reg.t * string
  | Jmp_abs of int
  | Jcc_abs of Insn.cond * int
  | Call_abs of int
  | Mater_const of Reg.t * int
  | Label of string
  | Align of int * [ `Nop | `Zero ]
  | Data of Insn.width * aexpr * [ `Reloc | `No_reloc ]
  | Raw of string
  | Space of int

exception Undefined_label of string

let pad_for ~at align = (align - (at mod align)) mod align

let item_size arch ~pie ~at = function
  | Jmp_abs _ -> Encode.wide_jmp_len arch
  | Jcc_abs _ -> Encode.length arch (Insn.Jcc (Eq, 0))
  | Call_abs _ -> Encode.length arch (Insn.Call 0)
  | Mater_const _ -> Mater.length arch ~pie
  | Insn i -> Encode.length arch i
  | Jmp_to _ -> Encode.wide_jmp_len arch
  | Jcc_to _ -> Encode.length arch (Insn.Jcc (Eq, 0))
  | Call_to _ -> Encode.length arch (Insn.Call 0)
  | Lea_of _ -> Encode.length arch (Insn.Lea (Reg.r0, 0))
  | Adrp_of _ | Addlo_page _ | Addis_toc _ | Addlo_toc _ ->
      if arch = Arch.X86_64 then
        raise (Encode.Not_encodable "RISC address-formation item on x86-64")
      else 4
  | Movabs_of _ ->
      if arch <> Arch.X86_64 then
        raise (Encode.Not_encodable "movabs item on a RISC flavour")
      else 10
  | Movhi_of _ | Orlo_of _ -> Encode.length arch (Insn.Movhi (Reg.r0, 0))
  | Label _ -> 0
  | Align (n, _) -> pad_for ~at n
  | Data (w, _, _) -> Insn.width_bytes w
  | Raw s -> String.length s
  | Space n -> n

type layout = { items : (item * int) list; l_base : int; l_end : int }

let layout arch ~pie ~labels ~base items =
  let addr = ref base in
  let placed =
    List.map
      (fun it ->
        let at = !addr in
        (match it with
        | Label l ->
            if Hashtbl.mem labels l then
              invalid_arg (Printf.sprintf "Asm: duplicate label %s" l);
            Hashtbl.add labels l at
        | _ -> ());
        addr := at + item_size arch ~pie ~at it;
        (it, at))
      items
  in
  { items = placed; l_base = base; l_end = !addr }

let label_exn labels l =
  match Hashtbl.find_opt labels l with
  | Some a -> a
  | None -> raise (Undefined_label l)

let eval labels = function
  | Const n -> n
  | Addr l -> label_exn labels l
  | Diff (a, b, scale) ->
      let d = label_exn labels a - label_exn labels b in
      if d mod scale <> 0 then
        invalid_arg
          (Printf.sprintf "Asm: %s - %s = %d not divisible by %d" a b d scale);
      d / scale
  | Diff_const (a, base, scale) ->
      let d = label_exn labels a - base in
      if d mod scale <> 0 then
        invalid_arg
          (Printf.sprintf "Asm: %s - 0x%x = %d not divisible by %d" a base d
             scale);
      d / scale

let check_data_range w v =
  let fits bits =
    let lim = 1 lsl (bits - 1) in
    v >= -lim && v < lim * 2
    (* accept both signed and unsigned interpretations *)
  in
  match (w : Insn.width) with
  | W8 when not (fits 8) ->
      raise
        (Encode.Not_encodable
           (Printf.sprintf "data value %d overflows 1 byte" v))
  | W16 when not (fits 16) ->
      raise
        (Encode.Not_encodable
           (Printf.sprintf "data value %d overflows 2 bytes" v))
  | W32 when not (fits 32) ->
      raise
        (Encode.Not_encodable
           (Printf.sprintf "data value %d overflows 4 bytes" v))
  | W8 | W16 | W32 | W64 -> ()

(* Encode the placed items in [items.(i0) .. items.(i1 - 1)] into [data],
   whose byte 0 is address [org]. Reads the (frozen) label table only;
   returns the segment's relocs in item order. [encode] passes the whole
   layout; [encode_chunks] one chunk at a time. *)
let encode_run arch ~pie ~toc ~labels ~org data items i0 i1 =
  let base = org in
  let relocs = ref [] in
  let emit_insn at i = ignore (Encode.encode_into arch data ~pos:(at - base) i) in
  for idx = i0 to i1 - 1 do
    let it, at = items.(idx) in
    (match it with
      | Insn i -> emit_insn at i
      | Jmp_to l -> emit_insn at (Insn.Jmp (label_exn labels l - at))
      | Jcc_to (c, l) -> emit_insn at (Insn.Jcc (c, label_exn labels l - at))
      | Call_to l -> emit_insn at (Insn.Call (label_exn labels l - at))
      | Lea_of (r, l) -> emit_insn at (Insn.Lea (r, label_exn labels l - at))
      | Adrp_of (r, l) ->
          let target = label_exn labels l in
          emit_insn at
            (Insn.Adrp (r, (target land lnot 4095) - (at land lnot 4095)))
      | Addlo_page (r, l) ->
          emit_insn at (Insn.Add (r, Imm (label_exn labels l land 4095)))
      | Addis_toc (r, l) ->
          let hi, _ = Mater.split_hi_lo (label_exn labels l - toc) in
          emit_insn at (Insn.Addis (r, Reg.toc, hi))
      | Addlo_toc (r, l) ->
          let _, lo = Mater.split_hi_lo (label_exn labels l - toc) in
          emit_insn at (Insn.Add (r, Imm lo))
      | Movabs_of (r, l) -> emit_insn at (Insn.Movabs (r, label_exn labels l))
      | Movhi_of (r, l) ->
          emit_insn at (Insn.Movhi (r, label_exn labels l asr 16))
      | Orlo_of (r, l) ->
          emit_insn at (Insn.Orlo (r, label_exn labels l land 0xffff))
      | Jmp_abs target -> emit_insn at (Insn.Jmp (target - at))
      | Jcc_abs (c, target) -> emit_insn at (Insn.Jcc (c, target - at))
      | Call_abs target -> emit_insn at (Insn.Call (target - at))
      | Mater_const (r, target) ->
          let insns =
            Mater.insns arch ~pie ~toc ~at ~target ~reg:r
          in
          let pos = ref at in
          List.iter
            (fun i ->
              emit_insn !pos i;
              pos := !pos + Encode.length arch i)
            insns
      | Label _ -> ()
      | Align (n, fill) -> (
          let pad = pad_for ~at n in
          match fill with
          | `Zero -> ()
          | `Nop ->
              let nop_len = Encode.length arch Insn.Nop in
              let pos = ref (at - base) in
              while !pos + nop_len <= at - base + pad do
                ignore (Encode.encode_into arch data ~pos:!pos Insn.Nop);
                pos := !pos + nop_len
              done)
      | Data (w, expr, reloc) -> (
          let v = eval labels expr in
          check_data_range w v;
          let pos = at - base in
          (match w with
          | Insn.W8 -> Bytes.set_uint8 data pos (v land 0xff)
          | Insn.W16 -> Bytes.set_uint16_le data pos (v land 0xffff)
          | Insn.W32 -> Bytes.set_int32_le data pos (Int32.of_int v)
          | Insn.W64 -> Bytes.set_int64_le data pos (Int64.of_int v));
          match (reloc, expr) with
          | `Reloc, Addr _ when pie ->
              relocs := Icfg_obj.Reloc.relative ~offset:at ~addend:v :: !relocs
          | _ -> ())
      | Raw s -> Bytes.blit_string s 0 data (at - base) (String.length s)
      | Space _ -> ())
  done;
  List.rev !relocs

let encode arch ~pie ~toc ~labels lay =
  let items = Array.of_list lay.items in
  let data = Bytes.make (lay.l_end - lay.l_base) '\000' in
  let relocs =
    encode_run arch ~pie ~toc ~labels ~org:lay.l_base data items 0
      (Array.length items)
  in
  (data, relocs)

type chunk = { c_items : (item * int) list }

(* Encode an explicit chunk list against a frozen label table into one
   buffer spanning the layout. Once the label table is frozen, encoding
   an item depends only on its own (item, address) pair, so each chunk
   encodes in place. Chunks need not tile the extent: address ranges no
   chunk covers (holes a pinned layout left behind) stay zero-filled.
   Relocs concatenate in chunk (address) order, which for chunks tiling
   the extent is the item-order reloc list of {!encode}. *)
let encode_chunks arch ~pie ~toc ~labels lay chunks =
  let data = Bytes.make (lay.l_end - lay.l_base) '\000' in
  let relocs =
    List.concat_map
      (fun ch ->
        let items = Array.of_list ch.c_items in
        encode_run arch ~pie ~toc ~labels ~org:lay.l_base data items 0
          (Array.length items))
      chunks
  in
  (data, relocs)

(* ------------------------------------------------------------------ *)
(* Pinned-address incremental layout                                   *)
(* ------------------------------------------------------------------ *)

type seg_rec = {
  sr_id : int;
  sr_digest : string;
  sr_start : int;
  sr_len : int;
}

type pinned_result = {
  p_layout : layout;
  p_recs : seg_rec list Lazy.t;
  p_chunks : chunk list;
  p_pinned : int;
  p_moved : int;
}

let seg_digest items = Digest.string (Icfg_obj.Key.dval items)

let seg_len arch ~pie ~start items =
  List.fold_left (fun at it -> at + item_size arch ~pie ~at it) start items
  - start

(* Zipr-style incremental placement: a segment whose content digest,
   recorded address and recomputed size all match its previous record is
   pinned exactly where it was; only the dirty segments are re-solved,
   first-fit into the holes the pinned extents leave (ending in the
   unbounded tail, which always accepts). Segment sizes are recomputed at
   each candidate address because [Align] items are position-dependent.

   Without [prev] every segment is dirty and first-fit against the single
   tail hole degenerates to sequential emission-order placement — bit- and
   address-identical to {!layout} over the concatenated item lists, which
   is what makes a cold pinned layout indistinguishable from the plain
   one. Digests are lazy: a segment's is computed only when a previous
   record could pin it or when the caller forces [p_recs] to persist
   them, so a cacheless layout never digests anything. *)
let layout_pinned arch ~pie ~labels ~base ?(prev = []) segs =
  let prev_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace prev_tbl r.sr_id r) prev;
  let tagged =
    List.mapi
      (fun eidx (id, items) -> (eidx, id, items, lazy (seg_digest items)))
      segs
  in
  let pinned_segs, dirty_segs =
    List.partition_map
      (fun (eidx, id, items, dg) ->
        match Hashtbl.find_opt prev_tbl id with
        | Some r
          when r.sr_digest = Lazy.force dg && r.sr_start >= base
               && seg_len arch ~pie ~start:r.sr_start items = r.sr_len ->
            Either.Left (eidx, id, items, dg, r.sr_start, r.sr_len, true)
        | _ -> Either.Right (eidx, id, items, dg))
      tagged
  in
  (* The free holes: the complement of the pinned extents above [base],
     closed by an unbounded tail. *)
  let extents =
    List.sort compare
      (List.map (fun (_, _, _, _, s, l, _) -> (s, s + l)) pinned_segs)
  in
  let rev_holes, tail_lo =
    List.fold_left
      (fun (acc, pos) (s, e) ->
        ((if s > pos then (pos, Some s) :: acc else acc), max pos e))
      ([], base) extents
  in
  let holes = ref (List.rev ((tail_lo, None) :: rev_holes)) in
  let place items =
    let rec go acc = function
      | [] -> invalid_arg "Asm.layout_pinned: exhausted the unbounded tail"
      | (lo, hi) :: rest -> (
          let len = seg_len arch ~pie ~start:lo items in
          match hi with
          | Some h when lo + len > h -> go ((lo, hi) :: acc) rest
          | _ -> (lo, len, List.rev_append acc ((lo + len, hi) :: rest)))
    in
    let lo, len, hs = go [] !holes in
    holes := hs;
    (lo, len)
  in
  let placed_dirty =
    List.map
      (fun (eidx, id, items, dg) ->
        let start, len = place items in
        (eidx, id, items, dg, start, len, false))
      dirty_segs
  in
  (* Register labels walking the segments in address order (emission order
     breaks ties so zero-length segments keep their relative position),
     producing the placed-item runs the layout and the chunks share. *)
  let ordered =
    List.sort
      (fun (e1, _, _, _, s1, _, _) (e2, _, _, _, s2, _, _) ->
        compare (s1, e1) (s2, e2))
      (pinned_segs @ placed_dirty)
  in
  let place_items start items =
    let addr = ref start in
    List.map
      (fun it ->
        let at = !addr in
        (match it with
        | Label l ->
            if Hashtbl.mem labels l then
              invalid_arg (Printf.sprintf "Asm: duplicate label %s" l);
            Hashtbl.add labels l at
        | _ -> ());
        addr := at + item_size arch ~pie ~at it;
        (it, at))
      items
  in
  let seg_placed =
    List.map
      (fun (_, id, items, dg, s, l, pinned) ->
        (id, dg, s, l, pinned, place_items s items))
      ordered
  in
  let l_end =
    List.fold_left (fun e (_, _, s, l, _, _) -> max e (s + l)) base seg_placed
  in
  let count pred =
    List.length
      (List.filter (fun (_, _, _, l, pinned, _) -> l > 0 && pred pinned)
         seg_placed)
  in
  {
    p_layout =
      {
        items = List.concat_map (fun (_, _, _, _, _, pi) -> pi) seg_placed;
        l_base = base;
        l_end;
      };
    p_recs =
      lazy
        (List.map
           (fun (id, dg, s, l, _, _) ->
             {
               sr_id = id;
               sr_digest = Lazy.force dg;
               sr_start = s;
               sr_len = l;
             })
           seg_placed);
    p_chunks =
      List.filter_map
        (fun (_, _, _, l, _, pi) ->
          if l = 0 then None else Some { c_items = pi })
        seg_placed;
    p_pinned = count (fun pinned -> pinned);
    p_moved = count (fun pinned -> not pinned);
  }

type result = {
  data : Bytes.t;
  base : int;
  labels : (string, int) Hashtbl.t;
  relocs : Icfg_obj.Reloc.t list;
}

let assemble arch ~pie ~toc ~base items =
  let labels = Hashtbl.create 64 in
  let lay = layout arch ~pie ~labels ~base items in
  let data, relocs = encode arch ~pie ~toc ~labels lay in
  { data; base; labels; relocs }
