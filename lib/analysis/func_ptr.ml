open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Symbol = Icfg_obj.Symbol
module Reloc = Icfg_obj.Reloc

type site =
  | Fp_slot of { slot : int; target : int; via_reloc : bool }
  | Fp_mater of { prov : int list; target : int }
  | Fp_adjusted of { src_slot : int; target : int; adjust : int }

let pp_site ppf = function
  | Fp_slot { slot; target; via_reloc } ->
      Format.fprintf ppf "slot 0x%x -> 0x%x%s" slot target
        (if via_reloc then " (reloc)" else "")
  | Fp_mater { prov; target } ->
      Format.fprintf ppf "mater [%s] -> 0x%x"
        (String.concat "," (List.map (Printf.sprintf "0x%x") prov))
        target
  | Fp_adjusted { src_slot; target; adjust } ->
      Format.fprintf ppf "adjusted slot 0x%x -> 0x%x%+d" src_slot target adjust

(* A value is "a function entry" if it exactly matches a function symbol's
   start address. *)
let entry_set bin =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Symbol.t) -> if Symbol.is_func s then Hashtbl.replace tbl s.addr ())
    bin.Binary.symbols;
  tbl

let is_entry entries v = Hashtbl.mem entries v

(* ------------------------------------------------------------------ *)
(* Data-resident pointers                                              *)
(* ------------------------------------------------------------------ *)

let reloc_slots bin entries =
  List.filter_map
    (fun (r : Reloc.t) ->
      match r.kind with
      | Reloc.R_relative when is_entry entries r.addend ->
          Some (Fp_slot { slot = r.offset; target = r.addend; via_reloc = true })
      | Reloc.R_relative | Reloc.R_link _ -> None)
    bin.Binary.relocs

let value_match_slots bin entries =
  (* Only writable data is scanned: read-only metadata sections (e.g. the
     Go function table) hold code addresses that are not function
     pointers. Only words that start in a section's stored prefix are
     read: a word in the zero tail is 0, never a function entry, so a
     huge declared tail costs nothing. *)
  let reloc_offsets =
    List.filter_map
      (fun (r : Reloc.t) -> if Reloc.is_runtime r then Some r.offset else None)
      bin.Binary.relocs
  in
  let relocated = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace relocated o ()) reloc_offsets;
  List.concat_map
    (fun (s : Section.t) ->
      if not (s.Section.perm.Section.write && s.Section.loaded) then []
      else
        let n =
          Int.min (Section.size s / 8) ((Bytes.length s.Section.data + 7) / 8)
        in
        List.filter_map
          (fun i ->
            let slot = s.Section.vaddr + (8 * i) in
            if Hashtbl.mem relocated slot then None
            else
              let v = Binary.read64 bin slot in
              if is_entry entries v then
                Some (Fp_slot { slot; target = v; via_reloc = false })
              else None)
          (List.init n (fun i -> i)))
    bin.Binary.sections

(* ------------------------------------------------------------------ *)
(* Code-resident pointers and forward slicing                          *)
(* ------------------------------------------------------------------ *)

type fval =
  | Fconst of int * int list  (** known constant with provenance *)
  | Fptr of int * int * int  (** (src_slot, target, adjust) *)
  | Funknown

let fp_scan_block bin (fm : Failure_model.t) entries slot_targets
    (b : Cfg.block) =
  let env : (int, fval) Hashtbl.t = Hashtbl.create 8 in
  let getv r = Option.value ~default:Funknown (Hashtbl.find_opt env (Reg.index r)) in
  let setv r v = Hashtbl.replace env (Reg.index r) v in
  let sites = ref [] in
  let emit s = sites := s :: !sites in
  let note_const_use v prov =
    if is_entry entries v && prov <> [] then
      emit (Fp_mater { prov; target = v })
  in
  let toc = bin.Binary.toc_base in
  List.iter
    (fun (addr, insn, _len) ->
      match (insn : Insn.t) with
      | Mov (r, Imm n) -> setv r (Fconst (n, [ addr ]))
      | Mov (rd, Reg rs) -> setv rd (getv rs)
      | Movabs (r, v) -> setv r (Fconst (v, [ addr ]))
      | Lea (r, d) -> setv r (Fconst (addr + d, [ addr ]))
      | Adrp (r, d) -> setv r (Fconst ((addr land lnot 4095) + d, [ addr ]))
      | Addis (rd, rs, hi) ->
          if Reg.equal rs Reg.toc && toc <> 0 then
            setv rd (Fconst (toc + (hi lsl 16), [ addr ]))
          else (
            (match getv rs with
            | Fconst (v, p) -> setv rd (Fconst (v + (hi lsl 16), addr :: p))
            | _ -> setv rd Funknown))
      | Movhi (r, hi) -> setv r (Fconst (hi lsl 16, [ addr ]))
      | Orlo (r, lo) -> (
          match getv r with
          | Fconst (v, p) -> setv r (Fconst (v lor (lo land 0xffff), addr :: p))
          | _ -> setv r Funknown)
      | Add (r, Imm n) -> (
          match getv r with
          | Fconst (v, p) -> setv r (Fconst (v + n, addr :: p))
          | Fptr (src, tgt, adj) when fm.forward_slice_fptrs ->
              setv r (Fptr (src, tgt, adj + n))
          | _ -> setv r Funknown)
      | Add (r, Reg _) | Sub (r, _) | Mul (r, _) | And_ (r, _) | Or_ (r, _)
      | Xor (r, _) | Shl (r, _) | Shr (r, _) ->
          setv r Funknown
      | Load (W64, rd, BReg rb, d) -> (
          match getv rb with
          | Fconst (a, _) -> (
              match Hashtbl.find_opt slot_targets (a + d) with
              | Some target when fm.forward_slice_fptrs ->
                  setv rd (Fptr (a + d, target, 0))
              | _ -> setv rd Funknown)
          | _ -> setv rd Funknown)
      | Load (_, rd, _, _) | LoadIdx (_, rd, _, _, _) -> setv rd Funknown
      | Store (W64, BReg rb, d, rs) -> (
          (match getv rs with
          | Fconst (v, p) -> note_const_use v p
          | Fptr (src, tgt, adj) when adj <> 0 ->
              emit (Fp_adjusted { src_slot = src; target = tgt; adjust = adj });
              ignore (rb, d)
          | Fptr _ | Funknown -> ()))
      | Store (_, _, _, rs) -> (
          match getv rs with
          | Fconst (v, p) -> note_const_use v p
          | Fptr (src, tgt, adj) when adj <> 0 ->
              emit (Fp_adjusted { src_slot = src; target = tgt; adjust = adj })
          | _ -> ())
      | IndCall r | IndJmp r -> (
          match getv r with
          | Fconst (v, p) -> note_const_use v p
          | Fptr (src, tgt, adj) when adj <> 0 ->
              emit (Fp_adjusted { src_slot = src; target = tgt; adjust = adj })
          | _ -> ())
      | Out r | Mtlr r | Mttar r -> (
          match getv r with Fconst (v, p) -> note_const_use v p | _ -> ())
      | Mflr r -> setv r Funknown
      | Call _ | IndCallMem _ | CallRt _ ->
          (* calls clobber caller-saved state *)
          List.iter (fun r -> setv r Funknown) (Reg.arg_regs @ [ Reg.ret ])
      | Nop | Halt | Trap | Illegal | Cmp _ | AddSp _ | Jmp _ | Jcc _ | Ret
      | Throw | Btar ->
          ())
    b.Cfg.b_insns;
  (* Any register still holding a function-entry constant at the block end
     is a materialized pointer (it escaped into the next block or a call). *)
  Hashtbl.iter
    (fun _ v -> match v with Fconst (c, p) -> note_const_use c p | _ -> ())
    env;
  !sites

(* Deduplicate materializations by provenance, adjusted uses by slot. A
   materialization's identity is the full (order-insensitive) provenance
   list plus its target: keying by the provenance sum and length collides
   distinct sites (e.g. [0x10;0x30] vs [0x20;0x20]) and silently drops a
   rewrite site in func-ptr mode. *)
let dedup sites =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let key =
        match s with
        | Fp_slot { slot; _ } -> `Slot slot
        | Fp_mater { prov; target } -> `Mater (List.sort compare prov, target)
        | Fp_adjusted { src_slot; adjust; _ } -> `Adjusted (src_slot, adjust)
      in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.replace seen key ();
        true))
    sites

(* Data-resident slots, which double as the slot-target map the forward
   slicer consults. *)
let data_slot_pass bin (fm : Failure_model.t) entries =
  let data_sites =
    (if fm.reloc_fptrs then reloc_slots bin entries else [])
    @ (if fm.value_match_fptrs && not bin.Binary.pie then
         value_match_slots bin entries
       else [])
  in
  let slot_targets = Hashtbl.create 16 in
  List.iter
    (function
      | Fp_slot { slot; target; _ } -> Hashtbl.replace slot_targets slot target
      | Fp_mater _ | Fp_adjusted _ -> ())
    data_sites;
  (data_sites, slot_targets)

let analyze bin (fm : Failure_model.t) (cfgs : Cfg.t list) =
  let entries = entry_set bin in
  let data_sites, slot_targets = data_slot_pass bin fm entries in
  let scan cfg =
    List.concat_map
      (fun b -> fp_scan_block bin fm entries slot_targets b)
      cfg.Cfg.blocks
  in
  dedup (data_sites @ List.concat_map scan cfgs)

let derived_block_targets sites =
  List.filter_map
    (function
      | Fp_adjusted { target; adjust; _ } -> Some (target + adjust)
      | Fp_slot _ | Fp_mater _ -> None)
    sites
  |> List.sort_uniq compare
