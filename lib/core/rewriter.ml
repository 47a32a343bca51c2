open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Symbol = Icfg_obj.Symbol
module Reloc = Icfg_obj.Reloc
module Abi = Icfg_obj.Abi
module Asm = Icfg_codegen.Asm
module Parse = Icfg_analysis.Parse
module Cfg = Icfg_analysis.Cfg
module Jump_table = Icfg_analysis.Jump_table
module Func_ptr = Icfg_analysis.Func_ptr
module Liveness = Icfg_analysis.Liveness
module Trampoline = Icfg_isa.Trampoline
module Ra_map = Icfg_runtime.Runtime_lib.Ra_map
module Stats = Icfg_trace.Stats

type payload = P_empty | P_count

type granularity = G_block | G_func_entry

type options = {
  mode : Mode.t;
  payload : payload;
  granularity : granularity;
  only : string list option;
  tramp_at_every_block : bool;
  call_emulation : bool;
  ra_translation : bool;
  use_superblocks : bool;
  use_scratch_pool : bool;
  instr_gap : int;
  overwrite_original : bool;
  order : [ `Original | `Reverse_funcs | `Reverse_blocks ];
  rewrite_direct : bool;
  bounce_back : bool;
  dyn_translate : bool;
  sparse_placement : bool;
}

let default_options =
  {
    mode = Mode.Jt;
    payload = P_empty;
    granularity = G_block;
    only = None;
    tramp_at_every_block = false;
    call_emulation = false;
    ra_translation = true;
    use_superblocks = true;
    use_scratch_pool = true;
    instr_gap = 0x1000;
    overwrite_original = true;
    order = `Original;
    rewrite_direct = true;
    bounce_back = false;
    dyn_translate = false;
    sparse_placement = false;
  }

let srbi_like payload =
  {
    default_options with
    mode = Mode.Dir;
    payload;
    tramp_at_every_block = true;
    call_emulation = true;
    ra_translation = false;
    use_superblocks = false;
    use_scratch_pool = false;
  }

type stats = {
  s_funcs_total : int;
  s_funcs_instrumented : int;
  s_blocks : int;
  s_cfl_blocks : int;
  s_trampolines : int;
  s_short_trampolines : int;
  s_long_trampolines : int;
  s_multi_hop : int;
  s_trap_trampolines : int;
  s_cloned_tables : int;
  s_rewritten_slots : int;
  s_orig_size : int;
  s_new_size : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "funcs %d/%d, blocks %d (cfl %d), trampolines %d (short %d, long %d, \
     hop %d, trap %d; %.2f/cfl, trap share %.1f%%), %d cloned tables, %d \
     slots, size %d -> %d (%s)"
    s.s_funcs_instrumented s.s_funcs_total s.s_blocks s.s_cfl_blocks
    s.s_trampolines s.s_short_trampolines s.s_long_trampolines s.s_multi_hop
    s.s_trap_trampolines
    (Stats.ratio ~den:s.s_cfl_blocks ~num:s.s_trampolines)
    (Stats.share ~total:s.s_trampolines ~part:s.s_trap_trampolines)
    s.s_cloned_tables s.s_rewritten_slots s.s_orig_size s.s_new_size
    (Stats.pct (Stats.ratio_pct ~base:s.s_orig_size ~value:s.s_new_size))

type t = {
  rw_binary : Binary.t;
  rw_ra_map : Ra_map.t;
  rw_trap_map : (int, int) Hashtbl.t;
  rw_counter_of_site : (int, int) Hashtbl.t;
  rw_dt_sites : (int, Reg.t) Hashtbl.t;
  rw_go_hook : bool;
  rw_translate_hook : bool;
  rw_stats : stats;
  rw_attribution : Attribution.t;
  rw_relocated_entry : int -> int option;
}

(* [prefix] followed by the digits of [a >= 0] in [base] (10 or 16,
   lowercase): [Printf.sprintf "%s%d"] or ["%s%x"] without the format
   interpreter, which costs several times the string it builds. A
   rewrite makes a label for every relocated block and table and for
   every fixup. *)
let rec digits base a = if a < base then 1 else 1 + digits base (a / base)

let label ~base prefix a =
  let pl = String.length prefix in
  let b = Bytes.create (pl + digits base a) in
  Bytes.blit_string prefix 0 b 0 pl;
  let a = ref a in
  for i = Bytes.length b - 1 downto pl do
    Bytes.set b i "0123456789abcdef".[!a mod base];
    a := !a / base
  done;
  Bytes.unsafe_to_string b

let block_label a = label ~base:16 "R$" a
let table_label a = label ~base:16 "JT$" a
let align_up n a = (n + a - 1) / a * a

module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* CFL classification (section 4)                                      *)
(* ------------------------------------------------------------------ *)

(* Returns the function's CFL blocks as a sorted [(block_start, cause)]
   list — the key set feeds region classification, the causes feed
   attribution. A block can be a candidate for several reasons (an entry
   that is also a pointer target); the recorded cause is the
   highest-priority one: entry > landing pad > pointer target > jump-table
   target > call fall-through. *)
let cfl_causes opts (p : Parse.t) (fa : Parse.func_analysis) =
  let cfg = fa.Parse.fa_cfg in
  let entry = fa.Parse.fa_sym.Symbol.addr in
  if
    (* B_inst-aware refinement (the paper's section 4.2 note): when only
       function entries are instrumented and the original code is left
       intact, every intra-procedural path from a non-entry CFL block to an
       instrumented block crosses a call — and the callee's entry trampoline
       covers it. Only entry blocks need trampolines. *)
    opts.sparse_placement
    && opts.granularity = G_func_entry
    && not opts.overwrite_original
  then [ (entry, Attribution.Cfl_entry) ]
  else if opts.tramp_at_every_block then
    List.sort_uniq
      (fun (a, _) (b, _) -> compare a b)
      (List.map
         (fun b ->
           ( b.Cfg.b_start,
             if b.Cfg.b_start = entry then Attribution.Cfl_entry
             else Attribution.Cfl_every_block ))
         cfg.Cfg.blocks)
  else
    let fend = entry + fa.Parse.fa_sym.Symbol.size in
    let in_func a = a >= entry && a < fend in
    let pads =
      match Icfg_obj.Ehframe.find p.Parse.bin.Binary.eh_frame entry with
      | Some fde ->
          List.filter_map
            (fun (_, _, h) -> if in_func h then Some h else None)
            fde.Icfg_obj.Ehframe.landing_pads
      | None -> []
    in
    let ptr_targets = List.filter in_func p.Parse.pointer_targets in
    (* Jump-table target blocks stay CFL until the tables are cloned. *)
    let jt_targets =
      if Mode.rewrites_jump_tables opts.mode then []
      else List.concat_map (fun t -> t.Jump_table.t_targets) fa.Parse.fa_tables
    in
    (* Call emulation returns to the original fall-through. *)
    let call_falls =
      if not opts.call_emulation then []
      else
        List.concat_map
          (fun b ->
            match Cfg.terminator b with
            | Some (a, i, len) when Insn.is_call i -> [ a + len ]
            | _ -> [])
          cfg.Cfg.blocks
    in
    let tbl = Hashtbl.create 16 in
    (* [succs] has one key per block start, so each candidate costs
       O(1); [Cfg.block_at] would scan the blocks. *)
    let add cause a =
      if Hashtbl.mem cfg.Cfg.succs a && not (Hashtbl.mem tbl a) then
        Hashtbl.add tbl a cause
    in
    add Attribution.Cfl_entry entry;
    List.iter (add Attribution.Cfl_landing_pad) pads;
    List.iter (add Attribution.Cfl_ptr_target) ptr_targets;
    List.iter (add Attribution.Cfl_jt_target) jt_targets;
    List.iter (add Attribution.Cfl_call_fallthrough) call_falls;
    List.sort compare (Hashtbl.fold (fun a c acc -> (a, c) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Relocation context                                                  *)
(* ------------------------------------------------------------------ *)

(* What a label in the relocated code stands for, resolved to its address
   once layout has placed it. *)
type fixup =
  | F_ra of int  (** original return address *)
  | F_throw of int  (** original throw site *)
  | F_block of int  (** original block *)
  | F_counter of int  (** counter call site: original block *)
  | F_trap of int  (** far-jump trap: target address *)
  | F_dt of Reg.t  (** dynamic-translation call site: target register *)

(* One rctx per relocated function: the shared configuration fields are
   read-only, and the mutable accumulators collect that function's own
   items and fixups, which become its layout segment and are merged in
   emission order. [ns] (the function's entry address) namespaces fresh
   labels, so a function's labels do not depend on the functions relocated
   before it. *)
type rctx = {
  p : Parse.t;
  opts : options;
  arch : Arch.t;
  count_idx : int;
  translate_idx : int;
  dt_idx : int;
  far : bool;  (** direct branches cannot span .text -> .instr *)
  is_instrumented : int -> bool;  (** by function entry address *)
  ns : string;  (** per-function fresh-label namespace: ["$<entry hex>$"] *)
  mutable items : Asm.item list;  (** .instr, reversed *)
  mutable jt_items : Asm.item list;  (** .jtnew, reversed *)
  mutable fixups : (string * fixup) list;  (** reversed *)
  mutable fresh : int;
  (* per-function stats *)
  mutable n_cloned : int;
}

let fresh_label ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  label ~base:10 (prefix ^ ctx.ns) ctx.fresh

let emit ctx its = ctx.items <- List.rev_append its ctx.items
let emit_jt ctx its = ctx.jt_items <- List.rev_append its ctx.jt_items
let fixup ctx l f = ctx.fixups <- (l, f) :: ctx.fixups

(* A fresh label, recorded as fixup [f], in front of [its]. *)
let labelled ctx prefix f its =
  let l = fresh_label ctx prefix in
  fixup ctx l f;
  Asm.Label l :: its

(* An unconditional jump to a fixed original address, usable at any point
   in the relocated stream without a known-dead register. *)
let jump_orig ctx target =
  match ctx.arch with
  | Arch.Ppc64le when ctx.far ->
      [
        Asm.Insn (Insn.Store (W64, BSp, -8, Reg.r15));
        Asm.Mater_const (Reg.r15, target);
        Asm.Insn (Insn.Mttar Reg.r15);
        Asm.Insn (Insn.Load (W64, Reg.r15, BSp, -8));
        Asm.Insn Insn.Btar;
      ]
  | Arch.Aarch64 when ctx.far ->
      (* No branch-target register: fall back to a trap resolved by the
         runtime library. *)
      labelled ctx "TRAP" (F_trap target) [ Asm.Insn Insn.Trap ]
  | _ -> [ Asm.Jmp_abs target ]

(* A call to a fixed original address. A far one spills the target
   through the stack so no dead register is required (the VM reads the
   memory-indirect target before pushing the return address). *)
let call_orig ctx target =
  if not ctx.far then [ Asm.Call_abs target ]
  else
    [
      Asm.Insn (Insn.Store (W64, BSp, -16, Reg.r15));
      Asm.Mater_const (Reg.r15, target);
      Asm.Insn (Insn.Store (W64, BSp, -8, Reg.r15));
      Asm.Insn (Insn.Load (W64, Reg.r15, BSp, -16));
      Asm.Insn (Insn.IndCallMem (BSp, -8));
    ]

(* ------------------------------------------------------------------ *)
(* Per-function relocation                                             *)
(* ------------------------------------------------------------------ *)

type fctx = {
  fstart : int;
  fend : int;
  jt_mater : (int, string) Hashtbl.t;
  jt_load : (int, unit) Hashtbl.t;
  fp_mater : (int, string) Hashtbl.t;
}

(* Does original address [a] have a relocated block label? It does when
   it lies in the function being relocated or is an instrumented entry. *)
let relocated ctx fc a =
  (a >= fc.fstart && a < fc.fend) || ctx.is_instrumented a

(* A jump to original address [tgt]: to its relocated block when it has
   one, else to the original code. *)
let jump_to ctx fc tgt =
  if relocated ctx fc tgt then [ Asm.Jmp_to (block_label tgt) ]
  else jump_orig ctx tgt

let record_ra ctx orig_ra = labelled ctx "RA" (F_ra orig_ra) []

let translate_call ctx addr len target =
  let next = addr + len in
  let call_items =
    if ctx.is_instrumented target then [ Asm.Call_to (block_label target) ]
    else call_orig ctx target
  in
  if not ctx.opts.call_emulation then call_items @ record_ra ctx next
  else
    (* Call emulation (SRBI/Multiverse): the callee sees the ORIGINAL
       return address; the return lands in original code. *)
    let jump_items =
      if ctx.is_instrumented target then [ Asm.Jmp_to (block_label target) ]
      else jump_orig ctx target
    in
    if Arch.has_link_register ctx.arch then
      [
        Asm.Insn (Insn.Store (W64, BSp, -8, Reg.r15));
        Asm.Mater_const (Reg.r15, next);
        Asm.Insn (Insn.Mtlr Reg.r15);
        Asm.Insn (Insn.Load (W64, Reg.r15, BSp, -8));
      ]
      @ jump_items
    else
      [
        Asm.Insn (Insn.Store (W64, BSp, -16, Reg.r15));
        Asm.Mater_const (Reg.r15, next);
        Asm.Insn (Insn.Store (W64, BSp, -8, Reg.r15));
        Asm.Insn (Insn.Load (W64, Reg.r15, BSp, -16));
        Asm.Insn (Insn.AddSp (-8));
      ]
      @ jump_items

(* Register a Multiverse-style dynamic-translation call before an indirect
   transfer: at run time the routine rewrites the target register through
   the original->relocated map. *)
let dt_call ctx reg =
  labelled ctx "DT" (F_dt reg) [ Asm.Insn (Insn.CallRt ctx.dt_idx) ]

let translate_insn ctx fc (addr, (insn : Insn.t), len) : Asm.item list =
  let jt_at a = Hashtbl.find_opt fc.jt_mater a in
  let fp_at a = Hashtbl.find_opt fc.fp_mater a in
  match insn with
  | Jmp d when not ctx.opts.rewrite_direct -> jump_orig ctx (addr + d)
  | Jmp d -> jump_to ctx fc (addr + d)
  | Jcc (c, d) ->
      let tgt = addr + d in
      if ctx.opts.rewrite_direct && relocated ctx fc tgt then
        [ Asm.Jcc_to (c, block_label tgt) ]
      else [ Asm.Jcc_abs (c, tgt) ]
  | Call d when not ctx.opts.rewrite_direct ->
      call_orig ctx (addr + d) @ record_ra ctx (addr + len)
  | Call d -> translate_call ctx addr len (addr + d)
  | IndJmp r when ctx.opts.dyn_translate ->
      dt_call ctx r @ [ Asm.Insn insn ]
  | IndCall r when ctx.opts.dyn_translate ->
      dt_call ctx r @ [ Asm.Insn insn ] @ record_ra ctx (addr + len)
  | IndCallMem (b, d) when ctx.opts.dyn_translate ->
      [
        Asm.Insn (Insn.Store (W64, BSp, -16, Reg.r15));
        Asm.Insn (Insn.Load (W64, Reg.r15, b, d));
      ]
      @ dt_call ctx Reg.r15
      @ [
          Asm.Insn (Insn.Store (W64, BSp, -8, Reg.r15));
          Asm.Insn (Insn.Load (W64, Reg.r15, BSp, -16));
          Asm.Insn (Insn.IndCallMem (BSp, -8));
        ]
      @ record_ra ctx (addr + len)
  | IndCall _ | IndCallMem _ ->
      if ctx.opts.call_emulation then
        (* Indirect calls are not emulated (the Dyninst-10.2 limitation the
           paper reports); keep the plain call, which pushes a relocated
           return address. *)
        [ Asm.Insn insn ]
      else [ Asm.Insn insn ] @ record_ra ctx (addr + len)
  | Movabs (r, _) -> (
      match (jt_at addr, fp_at addr) with
      | Some lbl, _ | None, Some lbl -> [ Asm.Movabs_of (r, lbl) ]
      | None, None -> [ Asm.Insn insn ])
  | Mov (r, Imm _) -> (
      match fp_at addr with
      | Some lbl when ctx.arch = Arch.X86_64 -> [ Asm.Movabs_of (r, lbl) ]
      | _ -> [ Asm.Insn insn ])
  | Lea (r, d) -> (
      match (jt_at addr, fp_at addr) with
      | Some lbl, _ -> [ Asm.Lea_of (r, lbl) ]
      | None, Some lbl -> [ Asm.Lea_of (r, lbl) ]
      | None, None -> [ Asm.Mater_const (r, addr + d) ])
  | Adrp (r, d) -> (
      match (jt_at addr, fp_at addr) with
      | Some lbl, _ -> [ Asm.Adrp_of (r, lbl) ]
      | None, Some lbl -> [ Asm.Adrp_of (r, lbl) ]
      | None, None -> [ Asm.Mater_const (r, (addr land lnot 4095) + d) ])
  | Addis (rd, rs, _) when Reg.equal rs Reg.toc -> (
      match (jt_at addr, fp_at addr) with
      | Some lbl, _ -> [ Asm.Addis_toc (rd, lbl) ]
      | None, Some lbl -> [ Asm.Addis_toc (rd, lbl) ]
      | None, None -> [ Asm.Insn insn ])
  | Add (r, Imm _) -> (
      match (jt_at addr, fp_at addr) with
      | Some lbl, _ | None, Some lbl -> (
          match ctx.arch with
          | Arch.Ppc64le -> [ Asm.Addlo_toc (r, lbl) ]
          | Arch.Aarch64 -> [ Asm.Addlo_page (r, lbl) ]
          | Arch.X86_64 -> [ Asm.Insn insn ])
      | None, None -> [ Asm.Insn insn ])
  | LoadIdx (_, rd, rb, ri, _) when Hashtbl.mem fc.jt_load addr ->
      (* Cloned narrow table: widen the read to 4 bytes, stride 4. *)
      [ Asm.Insn (Insn.LoadIdx (W32, rd, rb, ri, 4)) ]
  | Throw ->
      (* The unwinder sees the throw site itself as the innermost PC; give
         it an exact translation so same-frame landing-pad ranges match. *)
      labelled ctx "THR" (F_throw addr) [ Asm.Insn Insn.Throw ]
  | _ -> [ Asm.Insn insn ]

(* Emit the clone of a resolved jump table into .jtnew (section 5.1's
   jump-table cloning: solve tar(x') = y' for each relocated target). *)
let clone_table ctx (t : Jump_table.table) =
  let lbl = table_label t.Jump_table.t_table in
  let entry_items =
    List.map
      (fun slot ->
        match slot with
        | None ->
            (* Infeasible over-approximated entry: never dereferenced. *)
            let w =
              if t.Jump_table.t_base = None then Insn.W64 else Insn.W32
            in
            Asm.Data (w, Asm.Const 0, `No_reloc)
        | Some y -> (
            match (t.Jump_table.t_base, t.Jump_table.t_base_tied) with
            | None, _ ->
                (* absolute entries *)
                Asm.Data (Insn.W64, Asm.Addr (block_label y), `Reloc)
            | Some _, true ->
                (* x86 idiom: entries relative to the (cloned) table *)
                Asm.Data (Insn.W32, Asm.Diff (block_label y, lbl, 1), `No_reloc)
            | Some b, false ->
                (* aarch64 idiom: entries relative to the original code
                   base, scaled by 4, widened to 4 bytes *)
                Asm.Data (Insn.W32, Asm.Diff_const (block_label y, b, 4), `No_reloc)))
      t.Jump_table.t_slots
  in
  emit_jt ctx (Asm.Align (8, `Zero) :: Asm.Label lbl :: entry_items);
  ctx.n_cloned <- ctx.n_cloned + 1

let relocate_function ctx (fa : Parse.func_analysis) go_hook_funcs =
  let sym = fa.Parse.fa_sym in
  let fstart = sym.Symbol.addr and fend = sym.Symbol.addr + sym.Symbol.size in
  let cloned_tables =
    if Mode.rewrites_jump_tables ctx.opts.mode then fa.Parse.fa_tables else []
  in
  let fc =
    {
      fstart;
      fend;
      jt_mater = Hashtbl.create 4;
      jt_load = Hashtbl.create 4;
      fp_mater = Hashtbl.create 4;
    }
  in
  List.iter
    (fun (t : Jump_table.table) ->
      let lbl = table_label t.Jump_table.t_table in
      List.iter (fun a -> Hashtbl.replace fc.jt_mater a lbl) t.Jump_table.t_mater;
      if Insn.width_bytes t.Jump_table.t_width < 4 then
        Hashtbl.replace fc.jt_load t.Jump_table.t_load ();
      clone_table ctx t)
    cloned_tables;
  (* Function-pointer materialization sites in this function. *)
  if Mode.rewrites_func_ptrs ctx.opts.mode then
    List.iter
      (function
        | Func_ptr.Fp_mater { prov; target } when ctx.is_instrumented target ->
            List.iter
              (fun a ->
                if a >= fstart && a < fend then
                  Hashtbl.replace fc.fp_mater a (block_label target))
              prov
        | _ -> ())
      ctx.p.Parse.fptrs;
  let is_go_hook = List.mem sym.Symbol.name go_hook_funcs in
  let blocks =
    match ctx.opts.order with
    | `Original | `Reverse_funcs -> fa.Parse.fa_cfg.Cfg.blocks
    | `Reverse_blocks -> (
        (* Keep the entry block first so the relocated entry is the
           function's first relocated instruction. *)
        match fa.Parse.fa_cfg.Cfg.blocks with
        | entry :: rest -> entry :: List.rev rest
        | [] -> [])
  in
  (* Does a block continue into its fall-through successor? *)
  let falls_through (b : Cfg.block) =
    match Cfg.terminator b with
    | None -> true
    | Some (_, i, _) -> Insn.has_fallthrough i
  in
  let rec emit_blocks = function
    | [] -> ()
    | (b : Cfg.block) :: rest ->
        let lbl = block_label b.Cfg.b_start in
        fixup ctx lbl (F_block b.Cfg.b_start);
        emit ctx [ Asm.Label lbl ];
        if is_go_hook && b.Cfg.b_start = fstart then
          emit ctx [ Asm.Insn (Insn.CallRt ctx.translate_idx) ];
        let wants_payload =
          match ctx.opts.granularity with
          | G_block -> true
          | G_func_entry -> b.Cfg.b_start = fstart
        in
        (match ctx.opts.payload with
        | P_empty -> ()
        | P_count when not wants_payload -> ()
        | P_count ->
            emit ctx
              (labelled ctx "CNT" (F_counter b.Cfg.b_start)
                 [ Asm.Insn (Insn.CallRt ctx.count_idx) ]));
        List.iter (fun i -> emit ctx (translate_insn ctx fc i)) b.Cfg.b_insns;
        (* Materialize the fall-through edge when the next emitted block is
           not the textual successor (block reordering), or bounce back to
           the original code after every block (instruction patching). *)
        (if falls_through b then
           if ctx.opts.bounce_back then emit ctx (jump_orig ctx b.Cfg.b_end)
           else
             let next_emitted =
               match rest with b' :: _ -> Some b'.Cfg.b_start | [] -> None
             in
             if next_emitted <> Some b.Cfg.b_end then
               emit ctx (jump_to ctx fc b.Cfg.b_end));
        emit_blocks rest
  in
  emit_blocks blocks

(* ------------------------------------------------------------------ *)
(* Trampoline placement (sections 4 and 7)                             *)
(* ------------------------------------------------------------------ *)

type region_kind = R_cfl | R_scratch | R_preserved

(* The function's address space as sorted regions: blocks (CFL or scratch),
   in-code jump tables (scratch once cloned, preserved otherwise), nop gaps,
   and the trailing alignment padding. *)
let function_regions opts (p : Parse.t) (fa : Parse.func_analysis) cfl
    next_func_start =
  let bin = p.Parse.bin in
  let sym = fa.Parse.fa_sym in
  let fstart = sym.Symbol.addr and fend = sym.Symbol.addr + sym.Symbol.size in
  let cloned = Mode.rewrites_jump_tables opts.mode in
  let table_regions =
    List.filter_map
      (fun (t : Jump_table.table) ->
        if not t.Jump_table.t_in_code then None
        else
          let lo = t.Jump_table.t_table in
          let hi = lo + (t.Jump_table.t_count * Insn.width_bytes t.Jump_table.t_width) in
          Some (lo, hi, if cloned then R_scratch else R_preserved))
      fa.Parse.fa_tables
  in
  let block_regions =
    List.map
      (fun (b : Cfg.block) ->
        ( b.Cfg.b_start,
          b.Cfg.b_end,
          if IntSet.mem b.Cfg.b_start cfl then R_cfl else R_scratch ))
      fa.Parse.fa_cfg.Cfg.blocks
  in
  (* Nop gaps inside the function are scratch. *)
  let covered =
    List.sort compare
      (List.map (fun (a, b, _) -> (a, b)) (block_regions @ table_regions))
  in
  let rec gaps pos = function
    | [] -> if pos < fend then [ (pos, fend, R_scratch) ] else []
    | (a, b) :: rest ->
        let g = if pos < a then [ (pos, a, R_scratch) ] else [] in
        g @ gaps (max pos b) rest
  in
  let gap_regions = gaps fstart covered in
  (* Trailing inter-function padding: usable scratch. *)
  let pad_end =
    let lim = min next_func_start (Section.end_vaddr (Binary.text bin)) in
    let rec go a =
      if a >= lim then a
      else
        match Binary.decode_at bin a with
        | Insn.Nop, l -> go (a + l)
        | _ -> a
        | exception Invalid_argument _ -> a
    in
    go fend
  in
  let pad_regions = if pad_end > fend then [ (fend, pad_end, R_scratch) ] else [] in
  List.sort
    (fun (a, _, _) (b, _, _) -> compare a b)
    (block_regions @ table_regions @ gap_regions @ pad_regions)

(* Scratch pool: free ranges usable for multi-trampoline hops. *)
type pool = { mutable chunks : (int * int) list (* (start, end) *) }

let pool_add pool lo hi = if hi - lo >= 4 then pool.chunks <- (lo, hi) :: pool.chunks

let pool_alloc pool ~near ~size ~reach =
  let rec pick acc = function
    | [] -> None
    | (lo, hi) :: rest ->
        if hi - lo >= size && abs (lo - near) <= reach - size then
          Some (lo, List.rev_append acc ((lo + size, hi) :: rest))
        else pick ((lo, hi) :: acc) rest
  in
  match pick [] pool.chunks with
  | Some (lo, rest) ->
      pool.chunks <- rest;
      Some lo
  | None -> None

(* What attribution reads of one function's placement. *)
type placed_fn = {
  pf_entry : int;  (** function entry address *)
  pf_blocks : int;
  pf_cfl_causes : (int * Attribution.cause) list;
      (** CFL blocks with why each is one, sorted by address *)
}

(* The previous run's section layout, persisted in a cache slot so a
   warm run can pin unchanged functions at their prior addresses
   (Zipr-style incremental placement) instead of re-solving the whole
   section — which would shift every address downstream of the first
   function whose relocated size changed. *)
type layout_snap = {
  sn_instr_base : int;
  sn_jt_base : int;
  sn_instr : Asm.seg_rec list;
  sn_jt : Asm.seg_rec list;
}

(* ------------------------------------------------------------------ *)
(* The rewrite driver                                                  *)
(* ------------------------------------------------------------------ *)

let rewrite_inner ?cache ~options (p : Parse.t) =
  let opts = options in
  if opts.sparse_placement && opts.overwrite_original then
    invalid_arg
      "Rewriter: sparse placement requires the original code to be kept \
       (overwrite_original = false)";
  if opts.sparse_placement && opts.granularity <> G_func_entry then
    invalid_arg "Rewriter: sparse placement requires function-entry granularity";
  let bin = p.Parse.bin in
  let arch = bin.Binary.arch in
  let toc = bin.Binary.toc_base in
  let pie = bin.Binary.pie in
  (* 1. Instrumented function set. *)
  let chosen (fa : Parse.func_analysis) =
    fa.Parse.fa_instrumentable
    &&
    match opts.only with
    | None -> true
    | Some names -> List.mem fa.Parse.fa_sym.Symbol.name names
  in
  let ifuncs = List.filter chosen p.Parse.funcs in
  let instr_entries =
    IntSet.of_list (List.map (fun f -> f.Parse.fa_sym.Symbol.addr) ifuncs)
  in
  let is_instrumented a = IntSet.mem a instr_entries in
  (* 2. Dynamic symbols for the runtime library. *)
  let dynsyms =
    Array.append bin.Binary.dynsyms
      [| Abi.count; Abi.translate_r0; Abi.dyn_translate |]
  in
  let count_idx = Array.length bin.Binary.dynsyms in
  let translate_idx = count_idx + 1 in
  let dt_idx = count_idx + 2 in
  (* 3. Layout decisions. *)
  let instr_base = align_up (Binary.code_end bin + opts.instr_gap) 0x1000 in
  let text = Binary.text bin in
  let est_instr_hi =
    instr_base + (10 * Section.size text) + 0x40000
  in
  let far = not (Encode.jmp_fits arch ~wide:true (est_instr_hi - text.Section.vaddr)) in
  let go_hook_funcs =
    if
      opts.ra_translation
      && bin.Binary.features.Binary.go_runtime
      && is_instrumented
           (match Binary.symbol bin "runtime.findfunc" with
           | Some s -> s.Symbol.addr
           | None -> -1)
    then [ "runtime.findfunc"; "runtime.pcvalue" ]
    else []
  in
  let mk_ctx (fa : Parse.func_analysis) =
    {
      p;
      opts;
      arch;
      count_idx;
      translate_idx;
      dt_idx;
      far;
      is_instrumented;
      ns = label ~base:16 "$" fa.Parse.fa_sym.Symbol.addr ^ "$";
      items = [];
      jt_items = [];
      fixups = [];
      fresh = 0;
      n_cloned = 0;
    }
  in
  (* 4. Relocate all instrumented functions — one context per function,
     merged in emission order. *)
  let emission_funcs =
    match opts.order with
    | `Original | `Reverse_blocks -> ifuncs
    | `Reverse_funcs -> List.rev ifuncs
  in
  let fctxs =
    Trace.span "relocate" @@ fun () ->
    List.map
      (fun fa ->
        let ctx = mk_ctx fa in
        relocate_function ctx fa go_hook_funcs;
        ctx)
      emission_funcs
  in
  let fixups = List.concat_map (fun c -> List.rev c.fixups) fctxs in
  let n_cloned = List.fold_left (fun acc c -> acc + c.n_cloned) 0 fctxs in
  (* 5. Assemble .instr and .jtnew in one label namespace, one segment per
     function: layout assigns addresses and labels, then each function's
     chunk encodes against the frozen label table.

     Layout is Zipr-style ({!Asm.layout_pinned}): with a cache, the
     previous run's placement (persisted in the cache's layout slot) pins
     every unchanged function at its prior address, so an edit that
     changes one function's relocated size moves only that function and
     leaves everything downstream of it in place. Without a previous
     snapshot (no cache, or a cold one) the pinned layout is exactly the
     sequential one, and segment digests are only computed when a cache
     will store them. *)
  let labels = Hashtbl.create 1024 in
  let seg_of proj =
    List.map2
      (fun (fa : Parse.func_analysis) c ->
        (fa.Parse.fa_sym.Symbol.addr, List.rev (proj c)))
      emission_funcs fctxs
  in
  let snap_key =
    lazy
      (Icfg_obj.Key.dval ("layout-snap", bin.Binary.name, arch, pie, toc, opts))
  in
  let prev_instr, prev_jt_base, prev_jt =
    match
      Option.bind cache (fun c ->
          (Cache.find_slot c (Lazy.force snap_key) : layout_snap option))
    with
    | Some sn when sn.sn_instr_base = instr_base ->
        (sn.sn_instr, sn.sn_jt_base, sn.sn_jt)
    | _ -> ([], -1, [])
  in
  let pi =
    Trace.span "layout:instr" @@ fun () ->
    Asm.layout_pinned arch ~pie ~labels ~base:instr_base ~prev:prev_instr
      (seg_of (fun c -> c.items))
  in
  (* The jump-table base is always derived from the instr extent the run
     actually produced — never pinned — so the two sections can not
     collide when the instr section grows. *)
  let jt_base = align_up pi.Asm.p_layout.Asm.l_end 0x100 in
  let pj =
    Trace.span "layout:jtnew" @@ fun () ->
    Asm.layout_pinned arch ~pie ~labels ~base:jt_base
      ~prev:(if jt_base = prev_jt_base then prev_jt else [])
      (seg_of (fun c -> c.jt_items))
  in
  Option.iter
    (fun c ->
      Cache.store_slot c (Lazy.force snap_key)
        {
          sn_instr_base = instr_base;
          sn_jt_base = jt_base;
          sn_instr = Lazy.force pi.Asm.p_recs;
          sn_jt = Lazy.force pj.Asm.p_recs;
        };
      Trace.add "layout.pinned" (pi.Asm.p_pinned + pj.Asm.p_pinned);
      Trace.add "layout.moved" (pi.Asm.p_moved + pj.Asm.p_moved))
    cache;
  let encode (r : Asm.pinned_result) =
    Asm.encode_chunks arch ~pie ~toc ~labels r.Asm.p_layout r.Asm.p_chunks
  in
  let instr_bytes, instr_relocs =
    Trace.span "encode:instr" @@ fun () -> encode pi
  in
  let jt_bytes, jt_relocs = Trace.span "encode:jtnew" @@ fun () -> encode pj in
  let jt_lay = pj.Asm.p_layout in
  let reloc_of a = Asm.label_exn labels (block_label a) in
  (* 6. RA map, counter-site map, trap seeds from relocated code: every
     fixup resolved in one pass. Return-address pairs get an exact twin at
     ra-1: unwinders match the caller frame at the call instruction
     (IP-1), and that lookup must translate to original_ra-1 so
     landing-pad ranges starting mid-block still cover it. Each kind keeps
     its emission order: [Ra_map.of_pairs] sorts unstably, so the order
     decides between pairs with equal keys. *)
  let throws = ref [] and ras = ref [] and blocks = ref [] in
  let counter_of_site = Hashtbl.create 64 in
  let trap_map = Hashtbl.create 16 in
  let dt_sites = Hashtbl.create 16 in
  List.iter
    (fun (l, f) ->
      let a = Asm.label_exn labels l in
      match f with
      | F_ra v -> ras := (a - 1, v - 1) :: (a, v) :: !ras
      | F_throw v -> throws := (a, v) :: !throws
      | F_block v -> blocks := (a, v) :: !blocks
      | F_counter v -> Hashtbl.replace counter_of_site a v
      | F_trap v -> Hashtbl.replace trap_map a v
      | F_dt r -> Hashtbl.replace dt_sites a r)
    fixups;
  let throw_pairs = List.rev !throws in
  (* Under call emulation the throw-site pairs model __cxa_throw's emulated
     caller return address (exact matches only); full RA translation uses
     every pair. *)
  let ra_map =
    Trace.span "ra-map" @@ fun () ->
    if opts.ra_translation then
      Ra_map.of_pairs (throw_pairs @ List.rev_append !ras (List.rev !blocks))
    else Ra_map.of_pairs ~exact_only:true throw_pairs
  in
  (* 7. Trampoline placement over the original text. *)
  let writes : (int * string) list ref = ref [] in
  let pool = { chunks = [] } in
  (* Retired dynamic-linking sections become executable scratch space. *)
  List.iter
    (fun name ->
      match Binary.section bin name with
      | Some s -> pool_add pool s.Section.vaddr (Section.end_vaddr s)
      | None -> ())
    [ ".dynsym"; ".dynstr"; ".rela_dyn" ];
  let sorted_ifuncs =
    List.sort
      (fun a b -> compare a.Parse.fa_sym.Symbol.addr b.Parse.fa_sym.Symbol.addr)
      ifuncs
  in
  let next_start_of fa =
    let a = fa.Parse.fa_sym.Symbol.addr in
    List.fold_left
      (fun acc (s : Symbol.t) ->
        if s.Symbol.addr > a && s.Symbol.addr < acc then s.Symbol.addr else acc)
      max_int
      (Binary.func_symbols bin)
  in
  let deferred = ref [] in
  let preserved_ranges = ref [] in
  (* Placement cause per CFL block start (block starts are unique across
     functions), filled by both passes: one entry per placed trampoline,
     the source of both [stats] and attribution. *)
  let place_causes : (int, Attribution.cause) Hashtbl.t = Hashtbl.create 64 in
  (* First pass, function by function in address order: CFL
     classification, regions, superblock extension and trampoline
     selection. A CFL block with no local fit is deferred to the hop pass,
     which must run after every function has donated its scratch. *)
  let place_function fa =
    let cfl_causes_l = cfl_causes opts p fa in
    let cfl = IntSet.of_list (List.map fst cfl_causes_l) in
    let regions = function_regions opts p fa cfl (next_start_of fa) in
    (* The function's register liveness (section 7), analysed the first
       time a site asks for a scratch register: [Trampoline.select] asks
       only for a long trampoline on ppc64le and aarch64, the hop pass
       only for a hop on those ISAs. *)
    let live = lazy (Liveness.analyze fa.Parse.fa_cfg) in
    let rec place = function
      | [] -> ()
      | (lo, hi, R_cfl) :: rest ->
          (* Superblock: extend over following contiguous scratch. *)
          let rec extend e = function
            | (lo', hi', R_scratch) :: rest' when lo' = e && opts.use_superblocks ->
                extend hi' rest'
            | rest' -> (e, rest')
          in
          let se, rest' = extend hi rest in
          let space = se - lo in
          let target = reloc_of lo in
          let dead () = Liveness.dead_in arch (Lazy.force live) lo in
          (match Trampoline.select arch ~at:lo ~space ~target ~dead ~toc with
          | Some kind ->
              let bytes = Trampoline.emit arch ~at:lo ~target ~toc kind in
              writes := (lo, bytes) :: !writes;
              Hashtbl.replace place_causes lo
                (match kind with
                | Trampoline.Short -> Attribution.Tramp_short
                | Trampoline.Long _ | Trampoline.Long_save_restore _ ->
                    Attribution.Tramp_long
                | Trampoline.Trap_tramp -> Attribution.Trap_no_reach);
              pool_add pool (lo + String.length bytes) se
          | None ->
              deferred := (lo, se, target, dead) :: !deferred;
              pool_add pool (lo + Encode.short_jmp_len arch) se);
          place rest'
      | (lo, hi, R_scratch) :: rest ->
          (* Scratch not claimed by a preceding superblock: free space. *)
          pool_add pool lo hi;
          place rest
      | (lo, hi, R_preserved) :: rest ->
          preserved_ranges := (lo, hi) :: !preserved_ranges;
          place rest
    in
    place regions;
    {
      pf_entry = fa.Parse.fa_sym.Symbol.addr;
      pf_blocks = List.length fa.Parse.fa_cfg.Cfg.blocks;
      pf_cfl_causes = cfl_causes_l;
    }
  in
  let placed =
    Trace.span "place:plan" @@ fun () -> List.map place_function sorted_ifuncs
  in
  (* Second pass: multi-trampoline hops, then traps. *)
  (Trace.span "place:hops" @@ fun () ->
  List.iter
    (fun (lo, se, target, dead) ->
      let short_len = Encode.short_jmp_len arch in
      let reach = Arch.short_branch_range arch in
      let hop_kind_len () =
        match arch with
        | Arch.X86_64 -> Some (Trampoline.Long None, 5)
        | Arch.Ppc64le ->
            let dead = dead () in
            if Reg.Set.is_empty dead then
              Some (Trampoline.Long_save_restore Reg.r12, 24)
            else Some (Trampoline.Long (Some (Reg.Set.choose dead)), 16)
        | Arch.Aarch64 ->
            let dead = dead () in
            if Reg.Set.is_empty dead then None
            else Some (Trampoline.Long (Some (Reg.Set.choose dead)), 12)
      in
      (* The pool allocation must stay ahead of the reach guards: a chunk
         that then fails them is consumed anyway, exactly as the serial
         placement always did — only the trap's *cause* is refined here. *)
      let outcome =
        if not opts.use_scratch_pool then
          `Trap Attribution.Scratch_pool_disabled
        else
          match hop_kind_len () with
          | None -> `Trap Attribution.No_hop_kind
          | Some (kind, size) -> (
              match pool_alloc pool ~near:lo ~size ~reach with
              | None -> `Trap Attribution.No_scratch_space
              | Some chunk ->
                  if
                    se - lo >= short_len
                    && Encode.jmp_fits arch ~wide:false (chunk - lo)
                    && Trampoline.long_reaches arch ~at:chunk ~target ~toc
                  then `Hop (chunk, kind)
                  else `Trap Attribution.Trap_no_reach)
      in
      match outcome with
      | `Hop (chunk, kind) ->
          let hop1 = Encode.encode_jmp arch ~wide:false (chunk - lo) in
          let hop2 = Trampoline.emit arch ~at:chunk ~target ~toc kind in
          writes := (lo, hop1) :: (chunk, hop2) :: !writes;
          Hashtbl.replace place_causes lo Attribution.Tramp_hop
      | `Trap cause ->
          writes := (lo, Encode.encode arch Insn.Trap) :: !writes;
          Hashtbl.replace trap_map lo target;
          Hashtbl.replace place_causes lo cause)
    !deferred);
  (* Coverage attribution: assembled from the placed functions in sorted
     function order plus the placement-cause map, so it is a pure function
     of the rewrite output and never feeds back into it. *)
  let attribution =
    let block_sites =
      List.map
        (fun pf ->
          ( pf.pf_entry,
            List.map
              (fun (a, c) ->
                {
                  Attribution.bs_addr = a;
                  bs_cfl = c;
                  bs_place = Hashtbl.find_opt place_causes a;
                })
              pf.pf_cfl_causes ))
        placed
    in
    let blocks_tbl = Hashtbl.create 64 in
    List.iter
      (fun pf -> Hashtbl.replace blocks_tbl pf.pf_entry pf.pf_blocks)
      placed;
    Attribution.build ~mode:opts.mode ~instrumented:is_instrumented
      ~block_sites
      ~blocks_of:(fun a ->
        Option.value ~default:0 (Hashtbl.find_opt blocks_tbl a))
      p
  in
  (* 8. Build the output binary: collect every byte range emit writes
     into one list, then copy only the sections that list touches — every
     other section keeps sharing its buffer with the input. *)
  Trace.span "emit" @@ fun () ->
  (* Rename the retired dynamic-linking sections and make them executable
     scratch. *)
  let renamed_sections =
    List.map
      (fun (s : Section.t) ->
        if List.mem s.Section.name [ ".dynsym"; ".dynstr"; ".rela_dyn" ] then
          { s with Section.name = s.Section.name ^ ".old"; perm = Section.r_x }
        else s)
      bin.Binary.sections
  in
  (* Overwrite relocated functions with illegal bytes (the strong test). *)
  let overwrites =
    if opts.overwrite_original then
      List.map
        (fun fa ->
          let sym = fa.Parse.fa_sym in
          (sym.Symbol.addr, String.make sym.Symbol.size '\000'))
        ifuncs
    else []
  in
  (* Restore preserved in-code tables from the input. *)
  let restores =
    List.map
      (fun (lo, hi) ->
        ( lo,
          String.init (hi - lo) (fun i ->
              Char.chr (Binary.read8 bin (lo + i) land 0xff)) ))
      !preserved_ranges
  in
  (* Rewrite function-pointer data slots. *)
  let slot_patches = Hashtbl.create 16 in
  if Mode.rewrites_func_ptrs opts.mode then (
    List.iter
      (function
        | Func_ptr.Fp_slot { slot; target; _ } when is_instrumented target ->
            Hashtbl.replace slot_patches slot (reloc_of target)
        | _ -> ())
      p.Parse.fptrs;
    (* Adjusted uses override the plain patch: compensate so that the
       run-time arithmetic lands on the relocated split block. *)
    List.iter
      (function
        | Func_ptr.Fp_adjusted { src_slot; target; adjust }
          when is_instrumented target ->
            (match Hashtbl.find_opt labels (block_label (target + adjust)) with
            | Some reloc_tgt -> Hashtbl.replace slot_patches src_slot (reloc_tgt - adjust)
            | None -> ())
        | _ -> ())
      p.Parse.fptrs);
  let slot_writes =
    List.rev
      (Hashtbl.fold
         (fun slot v acc ->
           let b = Bytes.create 8 in
           Bytes.set_int64_le b 0 (Int64.of_int v);
           (slot, Bytes.unsafe_to_string b) :: acc)
         slot_patches [])
  in
  (* Trampolines and hop chunks ([writes]) land between the restored
     tables and the slot patches. *)
  let out =
    Binary.patch
      (Binary.with_sections bin renamed_sections)
      (overwrites @ restores @ !writes @ slot_writes)
  in
  (* Original relocations into repurposed bytes (cloned in-code tables and
     overwritten text of instrumented functions) must be dropped, or the
     loader would clobber installed trampolines and scratch chunks. *)
  let repurposed off =
    List.exists
      (fun fa ->
        let sym = fa.Parse.fa_sym in
        off >= sym.Symbol.addr && off < sym.Symbol.addr + sym.Symbol.size)
      ifuncs
    && not
         (List.exists (fun (lo, hi) -> off >= lo && off < hi) !preserved_ranges)
  in
  let relocs =
    List.filter_map
      (fun (r : Reloc.t) ->
        if Reloc.is_runtime r && repurposed r.Reloc.offset then None
        else
          match Hashtbl.find_opt slot_patches r.Reloc.offset with
          | Some v when Reloc.is_runtime r -> Some { r with Reloc.addend = v }
          | _ -> Some r)
      out.Binary.relocs
    @ instr_relocs @ jt_relocs
  in
  (* New sections. The RA map is stored in the binary only when some
     runtime actually unwinds (C++ exceptions or a Go runtime) — the
     paper's ".ra_map (when needed)". *)
  let ra_bytes =
    if
      opts.ra_translation
      && (bin.Binary.features.Binary.cpp_exceptions
         || bin.Binary.features.Binary.go_runtime)
    then Ra_map.encode ra_map
    else Bytes.create 0
  in
  let dynsym_base = align_up jt_lay.Asm.l_end 0x100 in
  let dynsym_size = 24 * (Array.length dynsyms + List.length (Binary.func_symbols bin)) in
  let dynstr_base = dynsym_base + dynsym_size in
  let dynstr_size =
    Array.fold_left (fun a s -> a + String.length s + 1) 16 dynsyms
  in
  let rela_base = dynstr_base + dynstr_size in
  let rela_size = (24 * List.length relocs) + 24 in
  let ra_base = align_up (rela_base + rela_size) 0x100 in
  let filler n seed = Bytes.init n (fun i -> Char.chr ((i * 89 + seed) land 0xff)) in
  let new_sections =
    [
      Section.make ~name:".instr" ~vaddr:instr_base ~perm:Section.r_x instr_bytes;
    ]
    @ (if Bytes.length jt_bytes > 0 then
         [ Section.make ~name:".jtnew" ~vaddr:jt_base ~perm:Section.r_only jt_bytes ]
       else [])
    @ [
        Section.make ~name:".dynsym" ~vaddr:dynsym_base ~perm:Section.r_only
          (filler dynsym_size 13);
        Section.make ~name:".dynstr" ~vaddr:dynstr_base ~perm:Section.r_only
          (filler dynstr_size 17);
        Section.make ~name:".rela_dyn" ~vaddr:rela_base ~perm:Section.r_only
          (filler rela_size 19);
      ]
    @
    if Bytes.length ra_bytes > 0 then
      [ Section.make ~name:".ra_map" ~vaddr:ra_base ~perm:Section.r_only ra_bytes ]
    else []
  in
  let out =
    {
      (List.fold_left Binary.add_section out new_sections) with
      Binary.relocs;
      dynsyms;
    }
  in
  let sum f = List.fold_left (fun n pf -> n + f pf) 0 placed in
  let placed_as pred =
    Hashtbl.fold (fun _ c n -> if pred c then n + 1 else n) place_causes 0
  in
  let stats =
    {
      s_funcs_total = List.length p.Parse.funcs;
      s_funcs_instrumented = List.length ifuncs;
      s_blocks = sum (fun pf -> pf.pf_blocks);
      s_cfl_blocks = sum (fun pf -> List.length pf.pf_cfl_causes);
      s_trampolines = Hashtbl.length place_causes;
      s_short_trampolines = placed_as (( = ) Attribution.Tramp_short);
      s_long_trampolines = placed_as (( = ) Attribution.Tramp_long);
      s_multi_hop = placed_as (( = ) Attribution.Tramp_hop);
      s_trap_trampolines = placed_as Attribution.is_trap;
      s_cloned_tables = n_cloned;
      s_rewritten_slots = Hashtbl.length slot_patches;
      s_orig_size = Binary.loaded_size bin;
      s_new_size = Binary.loaded_size out;
    }
  in
  (* Named counters mirror [stats] plus byte-level measures, each a pure
     function of the rewrite output. *)
  if Trace.active () then begin
    Trace.add "rewrite/funcs-total" stats.s_funcs_total;
    Trace.add "rewrite/funcs-instrumented" stats.s_funcs_instrumented;
    Trace.add "rewrite/blocks" stats.s_blocks;
    Trace.add "rewrite/cfl-blocks" stats.s_cfl_blocks;
    Trace.add "rewrite/trampolines" stats.s_trampolines;
    Trace.add "rewrite/trampolines:short" stats.s_short_trampolines;
    Trace.add "rewrite/trampolines:long" stats.s_long_trampolines;
    Trace.add "rewrite/trampolines:hop" stats.s_multi_hop;
    Trace.add "rewrite/trampolines:trap" stats.s_trap_trampolines;
    Trace.add "rewrite/trampoline-bytes"
      (List.fold_left (fun a (_, b) -> a + String.length b) 0 !writes);
    Trace.add "rewrite/cloned-tables" stats.s_cloned_tables;
    Trace.add "rewrite/rewritten-slots" stats.s_rewritten_slots;
    Trace.add "rewrite/instr-bytes" (Bytes.length instr_bytes);
    Trace.add "rewrite/jtnew-bytes" (Bytes.length jt_bytes);
    Trace.add "rewrite/ra-pairs" (Ra_map.size ra_map);
    Trace.add "rewrite/size-growth" (stats.s_new_size - stats.s_orig_size)
  end;
  {
    rw_binary = out;
    rw_ra_map = ra_map;
    rw_trap_map = trap_map;
    rw_counter_of_site = counter_of_site;
    rw_dt_sites = dt_sites;
    rw_go_hook = go_hook_funcs <> [];
    rw_translate_hook = opts.ra_translation || opts.call_emulation;
    rw_stats = stats;
    rw_attribution = attribution;
    rw_relocated_entry =
      (fun a -> Hashtbl.find_opt labels (block_label a));
  }

let rewrite ?cache ?(options = default_options) (p : Parse.t) =
  Trace.span "rewrite" (fun () -> rewrite_inner ?cache ~options p)
