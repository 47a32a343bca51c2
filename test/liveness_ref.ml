(* Reference liveness for the equivalence tests: a [Reg.Set] round-robin
   fixpoint that sweeps every block in address order, one instruction at
   a time, until nothing changes. With no iteration cap it reaches the
   least fixpoint, which {!Icfg_analysis.Liveness} must reproduce. *)

open Icfg_isa
module Cfg = Icfg_analysis.Cfg

let all_regs = Reg.Set.of_list Reg.all

let exit_live =
  Reg.Set.of_list ((Reg.ret :: Reg.callee_saved) @ Reg.arg_regs @ [ Reg.toc ])

let transfer insn live =
  match insn with
  | Insn.Call _ | Insn.IndCall _ | Insn.IndCallMem _ | Insn.CallRt _ ->
      let after_defs =
        Reg.Set.diff live (Reg.Set.of_list (Reg.ret :: Reg.arg_regs))
      in
      Reg.Set.union
        (Reg.Set.union after_defs (Insn.uses insn))
        (Reg.Set.of_list Reg.arg_regs)
  | _ -> Reg.Set.union (Reg.Set.diff live (Insn.defs insn)) (Insn.uses insn)

(* Live-in at a block start; unknown addresses report every register. *)
let analyze (cfg : Cfg.t) : int -> Reg.Set.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.Cfg.b_start Reg.Set.empty) cfg.Cfg.blocks;
  let live_in a = Option.value ~default:all_regs (Hashtbl.find_opt tbl a) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        let succs = Cfg.successors cfg b.Cfg.b_start in
        let leaves =
          match Cfg.terminator b with
          | Some (_, (Insn.Ret | Insn.IndJmp _ | Insn.Throw | Insn.Halt | Insn.Btar), _)
            ->
              true
          | _ -> succs = []
        in
        let from_succs =
          List.fold_left
            (fun acc (dst, _) -> Reg.Set.union acc (live_in dst))
            Reg.Set.empty succs
        in
        let out = if leaves then Reg.Set.union from_succs exit_live else from_succs in
        let inn =
          List.fold_right (fun (_, insn, _) live -> transfer insn live) b.Cfg.b_insns out
        in
        if not (Reg.Set.equal (live_in b.Cfg.b_start) inn) then (
          Hashtbl.replace tbl b.Cfg.b_start inn;
          changed := true))
      cfg.Cfg.blocks
  done;
  live_in

(* The blocks of [cfg] whose live-in differs from the reference, as
   [(block start, got, want)]. *)
let mismatches (cfg : Cfg.t) lv =
  let want = analyze cfg in
  List.filter_map
    (fun b ->
      let a = b.Cfg.b_start in
      let got = Icfg_analysis.Liveness.live_in lv a in
      if Reg.Set.equal got (want a) then None else Some (a, got, want a))
    cfg.Cfg.blocks
