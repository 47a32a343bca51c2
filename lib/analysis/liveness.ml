open Icfg_isa

(* Register sets are 16-bit masks: bit [Reg.index r] is set iff [r] is in
   the set. [starts] holds the block start addresses in address order and
   [live] the live-in mask of each. *)
type t = { starts : int array; live : int array }

let mask_of_list = List.fold_left (fun m r -> m lor Reg.bit r) 0

let all_regs = (1 lsl Reg.count) - 1

(* Registers live across a return or an edge we cannot see: the return value
   plus every callee-saved register, conservatively extended by argument
   registers (a tail call consumes them). *)
let exit_live =
  mask_of_list ((Reg.ret :: Reg.callee_saved) @ Reg.arg_regs @ [ Reg.toc ])

let args = mask_of_list Reg.arg_regs
let call_kill = mask_of_list (Reg.ret :: Reg.arg_regs)

(* One instruction's backward transfer [live -> (live \ kill) ∪ gen]. Calls
   define caller-saved registers (they may clobber them) and use argument
   registers. *)
let gen_kill insn =
  match insn with
  | Insn.Call _ | Insn.IndCall _ | Insn.IndCallMem _ | Insn.CallRt _ ->
      (Insn.uses_mask insn lor args, call_kill)
  | _ -> (Insn.uses_mask insn, Insn.defs_mask insn)

(* A block's transfer composed once, last instruction first:
   [f_i ∘ (x -> (x \ k) ∪ g)] is [x -> (x \ (k ∪ k_i)) ∪ ((g \ k_i) ∪ g_i)]. *)
let summary (b : Cfg.block) =
  List.fold_right
    (fun (_, insn, _) (gen, kill) ->
      let g, k = gen_kill insn in
      ((gen land lnot k) lor g, kill lor k))
    b.Cfg.b_insns (0, 0)

(* Index of [addr] in the sorted [starts], or -1. *)
let find starts addr =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let a = starts.(mid) in
      if a = addr then mid else if a < addr then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length starts)

let analyze (cfg : Cfg.t) =
  let blocks = cfg.Cfg.blocks in
  let n = List.length blocks in
  let starts = Array.make n 0 in
  List.iteri (fun i b -> starts.(i) <- b.Cfg.b_start) blocks;
  let gen = Array.make n 0 and kill = Array.make n 0 in
  (* [out.(i)] starts as what flows out of block [i] regardless of the
     fixpoint: the exit set where control leaves the function, and every
     register for an edge into no known block. *)
  let out = Array.make n 0 and pred = Array.make n [] in
  List.iteri
    (fun i b ->
      let g, k = summary b in
      gen.(i) <- g;
      kill.(i) <- k;
      let succs = Cfg.successors cfg b.Cfg.b_start in
      let leaves =
        succs = []
        ||
        match Cfg.terminator b with
        | Some (_, (Insn.Ret | Insn.IndJmp _ | Insn.Throw | Insn.Halt | Insn.Btar), _)
          ->
            true
        | _ -> false
      in
      if leaves then out.(i) <- exit_live;
      List.iter
        (fun (dst, _) ->
          let j = find starts dst in
          if j < 0 then out.(i) <- all_regs else pred.(j) <- i :: pred.(j))
        succs)
    blocks;
  (* Worklist fixpoint from the empty set, seeded in reverse address order
     so straight-line code settles in one pass. When a block's live-in
     grows it is or-ed into its predecessors' live-out, and a predecessor
     whose live-out grew is queued again. A mask grows at most [Reg.count]
     times, so the work is linear in blocks plus edges, and the result is
     the least fixpoint. *)
  let live = Array.make n 0 in
  let stack = Array.init n (fun i -> i) and top = ref n in
  let queued = Bytes.make n '\001' in
  while !top > 0 do
    decr top;
    let i = stack.(!top) in
    Bytes.set queued i '\000';
    let inn = (out.(i) land lnot kill.(i)) lor gen.(i) in
    if inn <> live.(i) then (
      live.(i) <- inn;
      List.iter
        (fun p ->
          let o = out.(p) lor inn in
          if o <> out.(p) then (
            out.(p) <- o;
            if Bytes.get queued p = '\000' then (
              Bytes.set queued p '\001';
              stack.(!top) <- p;
              incr top)))
        pred.(i))
  done;
  { starts; live }

let live_mask t addr =
  let i = find t.starts addr in
  if i < 0 then all_regs else t.live.(i)

let live_in t addr = Reg.set_of_mask (live_mask t addr)

let dead_in arch t addr =
  Reg.set_of_mask
    (mask_of_list (Reg.caller_saved arch) land lnot (live_mask t addr))
