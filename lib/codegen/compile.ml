open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Symbol = Icfg_obj.Symbol
module Ehframe = Icfg_obj.Ehframe

let text_base = 0x400000
let go_walk_sym = "icfg.go_walk"
let data_label g = "g$" ^ g

(* Temporary registers used by expression evaluation, lowest first. *)
let t0 = Reg.r12
let t1 = Reg.r13
let t2 = Reg.r14
let t3 = Reg.r15
let temps = [ t0; t1; t2; t3 ]

type pending_jt = {
  pj_func : string;
  pj_jump : string;  (** label on the indirect jump *)
  pj_table : string;
  pj_base : string option;  (** label whose address is the tar() base *)
  pj_width : Insn.width;
  pj_scale : int;
  pj_cases : string list;
  pj_style : Ir.switch_style;
  pj_in_code : bool;
}

type pending_fp =
  | Pf_mater of { label : string; len : int; func : string }
  | Pf_slot of { label : string; func : string; adjust : int }

type funcmeta = {
  fm_name : string;
  fm_leaf : bool;
  fm_frame : int;  (** bytes allocated by the prologue *)
  fm_pads : (string * string * string) list;  (** (lo, hi, handler) labels *)
}

type ctx = {
  arch : Arch.t;
  pie : bool;
  mutable fresh : int;
  mutable rodata : Asm.item list;  (** reversed *)
  mutable data_items : Asm.item list;  (** reversed *)
  mutable jts : pending_jt list;
  mutable fps : pending_fp list;
  mutable metas : funcmeta list;
  dyn_tbl : (string, int) Hashtbl.t;
  mutable dyn_names : string list;  (** reversed *)
  mutable rodata_tables : int;  (** jump tables emitted so far (aarch64 quirk) *)
}

let fresh ctx prefix =
  ctx.fresh <- ctx.fresh + 1;
  Printf.sprintf "%s$%d" prefix ctx.fresh

let dyn_index ctx name =
  match Hashtbl.find_opt ctx.dyn_tbl name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ctx.dyn_tbl in
      Hashtbl.add ctx.dyn_tbl name i;
      ctx.dyn_names <- name :: ctx.dyn_names;
      i

let push_rodata ctx items = ctx.rodata <- List.rev_append items ctx.rodata
let push_data ctx items = ctx.data_items <- List.rev_append items ctx.data_items

(* ------------------------------------------------------------------ *)
(* Function environment                                                *)
(* ------------------------------------------------------------------ *)

type fenv = {
  ctx : ctx;
  fname : string;
  slots : (string, int) Hashtbl.t;
  frame : int;
  leaf : bool;
  mutable pads : (string * string * string) list;
}

let slot_off env v =
  match Hashtbl.find_opt env.slots v with
  | Some i -> 8 * i
  | None -> invalid_arg (Printf.sprintf "%s: unbound variable %s" env.fname v)

(* A function is a leaf if nothing in it transfers control out and back:
   calls (direct, indirect, runtime) force an LR save on the RISC
   flavours. Throw does not: the unwinder reads lr via the FDE. *)
let rec stmt_has_call = function
  | Ir.Call _ | Ir.Go_traceback -> true
  | Ir.Tail_call _ -> false
  | Ir.If (_, _, _, a, b) -> List.exists stmt_has_call a || List.exists stmt_has_call b
  | Ir.For (_, _, _, body) -> List.exists stmt_has_call body
  | Ir.Switch (_, _, cases, d) ->
      Array.exists (List.exists stmt_has_call) cases
      || List.exists stmt_has_call d
  | Ir.Try (body, _, h) ->
      List.exists stmt_has_call body || List.exists stmt_has_call h
  | Ir.Let _ | Ir.Set _ | Ir.Return _ | Ir.Print _ | Ir.Throw _ | Ir.Nops _ ->
      false

let rec stmt_needs_ptr_slot = function
  | Ir.Call (_, Ir.Via_ptr _, _) -> true
  | Ir.If (_, _, _, a, b) ->
      List.exists stmt_needs_ptr_slot a || List.exists stmt_needs_ptr_slot b
  | Ir.For (_, _, _, body) -> List.exists stmt_needs_ptr_slot body
  | Ir.Switch (_, _, cases, d) ->
      Array.exists (List.exists stmt_needs_ptr_slot) cases
      || List.exists stmt_needs_ptr_slot d
  | Ir.Try (body, _, h) ->
      List.exists stmt_needs_ptr_slot body || List.exists stmt_needs_ptr_slot h
  | _ -> false

let rec stmt_needs_spill = function
  | Ir.Switch (Ir.Jt_spilled_base, _, _, _) -> true
  | Ir.If (_, _, _, a, b) ->
      List.exists stmt_needs_spill a || List.exists stmt_needs_spill b
  | Ir.For (_, _, _, body) -> List.exists stmt_needs_spill body
  | Ir.Switch (_, _, cases, d) ->
      Array.exists (List.exists stmt_needs_spill) cases
      || List.exists stmt_needs_spill d
  | Ir.Try (body, _, h) ->
      List.exists stmt_needs_spill body || List.exists stmt_needs_spill h
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let mater_label ctx reg label : Asm.item list =
  match (ctx.arch, ctx.pie) with
  | Arch.X86_64, false -> [ Asm.Movabs_of (reg, label) ]
  | Arch.X86_64, true -> [ Asm.Lea_of (reg, label) ]
  | Arch.Ppc64le, _ -> [ Asm.Addis_toc (reg, label); Asm.Addlo_toc (reg, label) ]
  | Arch.Aarch64, _ -> [ Asm.Adrp_of (reg, label); Asm.Addlo_page (reg, label) ]

let mater_label_len ctx =
  match (ctx.arch, ctx.pie) with
  | Arch.X86_64, false -> 10
  | Arch.X86_64, true -> 7
  | (Arch.Ppc64le | Arch.Aarch64), _ -> 8

let mater_func env reg f : Asm.item list =
  let l = fresh env.ctx "fpm" in
  env.ctx.fps <-
    Pf_mater { label = l; len = mater_label_len env.ctx; func = f } :: env.ctx.fps;
  Asm.Label l :: mater_label env.ctx reg f

let mov_imm arch reg n : Asm.item list =
  match arch with
  | Arch.X86_64 -> [ Asm.Insn (Insn.Mov (reg, Imm n)) ]
  | Arch.Ppc64le | Arch.Aarch64 ->
      if n >= -32768 && n < 32768 then [ Asm.Insn (Insn.Mov (reg, Imm n)) ]
      else
        [
          Asm.Insn (Insn.Movhi (reg, n asr 16));
          Asm.Insn (Insn.Orlo (reg, n land 0xffff));
        ]

let imm_fits arch n =
  match arch with
  | Arch.X86_64 -> n >= -0x80000000 && n < 0x80000000
  | Arch.Ppc64le | Arch.Aarch64 -> n >= -32768 && n < 32768

let binop_rr (op : Ir.binop) rd rs : Insn.t =
  match op with
  | Badd -> Add (rd, Reg rs)
  | Bsub -> Sub (rd, Reg rs)
  | Bmul -> Mul (rd, Reg rs)
  | Band -> And_ (rd, Reg rs)
  | Bor -> Or_ (rd, Reg rs)
  | Bxor -> Xor (rd, Reg rs)
  | Bshl | Bshr -> invalid_arg "shift by register is not supported"

let binop_ri (op : Ir.binop) rd n : Insn.t =
  match op with
  | Badd -> Add (rd, Imm n)
  | Bsub -> Sub (rd, Imm n)
  | Bmul -> Mul (rd, Imm n)
  | Band -> And_ (rd, Imm n)
  | Bor -> Or_ (rd, Imm n)
  | Bxor -> Xor (rd, Imm n)
  | Bshl -> Shl (rd, n)
  | Bshr -> Shr (rd, n)

let rec eval env (e : Ir.expr) reg pool : Asm.item list =
  let ctx = env.ctx in
  match e with
  | Int n -> mov_imm ctx.arch reg n
  | Var v -> [ Asm.Insn (Insn.Load (W64, reg, BSp, slot_off env v)) ]
  | Global g ->
      mater_label ctx reg (data_label g)
      @ [ Asm.Insn (Insn.Load (W64, reg, BReg reg, 0)) ]
  | Addr_of g -> mater_label ctx reg (data_label g)
  | Func_addr f -> mater_func env reg f
  | Load_mem (w, a) ->
      eval env a reg pool @ [ Asm.Insn (Insn.Load (w, reg, BReg reg, 0)) ]
  | Table_elt (t, idx) -> (
      match pool with
      | tmp :: _rest ->
          eval env idx reg pool
          @ mater_label ctx tmp (data_label t)
          @ [ Asm.Insn (Insn.LoadIdx (W64, reg, tmp, reg, 8)) ]
      | [] -> invalid_arg (env.fname ^ ": expression too deep"))
  | Bin ((Bshl | Bshr) as op, a, Int n) ->
      eval env a reg pool @ [ Asm.Insn (binop_ri op reg n) ]
  | Bin (op, a, Int n)
    when imm_fits ctx.arch n && not (op = Bshl || op = Bshr) ->
      eval env a reg pool @ [ Asm.Insn (binop_ri op reg n) ]
  | Bin (op, a, b) -> (
      match pool with
      | tmp :: rest ->
          eval env a reg pool @ eval env b tmp rest
          @ [ Asm.Insn (binop_rr op reg tmp) ]
      | [] -> invalid_arg (env.fname ^ ": expression too deep"))

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

(* Frame teardown without the final return/jump. Uses t2 so that an
   indirect tail-call target staged in t0 survives. *)
let epilogue_items env : Asm.item list =
  let restore_lr =
    if env.leaf || not (Arch.has_link_register env.ctx.arch) then []
    else
      [
        Asm.Insn (Insn.Load (W64, t2, BSp, env.frame - 8));
        Asm.Insn (Insn.Mtlr t2);
      ]
  in
  let dealloc = if env.frame = 0 then [] else [ Asm.Insn (Insn.AddSp env.frame) ] in
  restore_lr @ dealloc

let store_var env v reg = [ Asm.Insn (Insn.Store (W64, BSp, slot_off env v, reg)) ]

let arg_temps = [| t0; t1; t2; t3 |]

let lower_args env args =
  (* Evaluate argument i into temps.(i); later arguments get smaller pools,
     so deep expressions must come first (the generators comply). *)
  let items =
    List.concat
      (List.mapi
         (fun i a ->
           let reg = arg_temps.(i) in
           let pool = List.filteri (fun j _ -> j > i) temps in
           eval env a reg pool)
         args)
  in
  let moves =
    List.mapi
      (fun i _ -> Asm.Insn (Insn.Mov (List.nth Reg.arg_regs i, Reg arg_temps.(i))))
      args
  in
  items @ moves

let rec lower_stmts env stmts = List.concat_map (lower_stmt env) stmts

and lower_stmt env (s : Ir.stmt) : Asm.item list =
  let ctx = env.ctx in
  match s with
  | Let (v, e) | Set (Lvar v, e) -> eval env e t0 [ t1; t2; t3 ] @ store_var env v t0
  | Set (Lglobal g, e) ->
      eval env e t0 [ t1; t2 ]
      @ mater_label ctx t3 (data_label g)
      @ [ Asm.Insn (Insn.Store (W64, BReg t3, 0, t0)) ]
  | Set (Ltable (t, idx), e) ->
      eval env e t0 [ t1 ]
      @ eval env idx t1 [ t2 ]
      @ mater_label ctx t3 (data_label t)
      @ [
          Asm.Insn (Insn.Shl (t1, 3));
          Asm.Insn (Insn.Add (t1, Reg t3));
          Asm.Insn (Insn.Store (W64, BReg t1, 0, t0));
        ]
  | Set (Lmem (w, a), e) ->
      eval env e t0 [ t1 ]
      @ eval env a t1 [ t2; t3 ]
      @ [ Asm.Insn (Insn.Store (w, BReg t1, 0, t0)) ]
  | If (c, e1, e2, yes, no) ->
      let l_else = fresh ctx "else" and l_end = fresh ctx "endif" in
      eval env e1 t0 [ t1; t2; t3 ]
      @ eval env e2 t1 [ t2; t3 ]
      @ [
          Asm.Insn (Insn.Cmp (t0, Reg t1));
          Asm.Jcc_to (Insn.negate_cond c, l_else);
        ]
      @ lower_stmts env yes
      @ [ Asm.Jmp_to l_end; Asm.Label l_else ]
      @ lower_stmts env no @ [ Asm.Label l_end ]
  | For (v, lo, hi, body) ->
      let l_head = fresh ctx "for" and l_end = fresh ctx "endfor" in
      if not (imm_fits ctx.arch hi) then
        invalid_arg (env.fname ^ ": loop bound too large");
      mov_imm ctx.arch t0 lo @ store_var env v t0
      @ [
          Asm.Label l_head;
          Asm.Insn (Insn.Load (W64, t0, BSp, slot_off env v));
          Asm.Insn (Insn.Cmp (t0, Imm hi));
          Asm.Jcc_to (Insn.Ge, l_end);
        ]
      @ lower_stmts env body
      @ [
          Asm.Insn (Insn.Load (W64, t0, BSp, slot_off env v));
          Asm.Insn (Insn.Add (t0, Imm 1));
          Asm.Insn (Insn.Store (W64, BSp, slot_off env v, t0));
          Asm.Jmp_to l_head;
          Asm.Label l_end;
        ]
  | Switch (style, scrutinee, cases, default) ->
      lower_switch env style scrutinee cases default
  | Call (res, callee, args) ->
      let n = List.length args in
      let call_items =
        match callee with
        | Direct f ->
            if n > 4 then invalid_arg (env.fname ^ ": too many arguments");
            lower_args env args @ [ Asm.Call_to f ]
        | Via_ptr p ->
            if n > 3 then
              invalid_arg (env.fname ^ ": too many arguments for indirect call");
            (* Stage the pointer in a hidden slot so argument evaluation can
               use every temporary. *)
            eval env p t0 [ t1; t2; t3 ]
            @ store_var env "$ptr" t0 @ lower_args env args
            @ [
                Asm.Insn (Insn.Load (W64, t3, BSp, slot_off env "$ptr"));
                Asm.Insn (Insn.IndCall t3);
              ]
        | Via_table (t, k) ->
            if n > 3 then
              invalid_arg (env.fname ^ ": too many arguments for indirect call");
            lower_args env args
            @ mater_label ctx t3 (data_label t)
            @ [ Asm.Insn (Insn.IndCallMem (BReg t3, 8 * k)) ]
      in
      let save =
        match res with None -> [] | Some v -> store_var env v Reg.ret
      in
      call_items @ save
  | Tail_call (Direct f) -> epilogue_items env @ [ Asm.Jmp_to f ]
  | Tail_call (Via_ptr p) ->
      eval env p t0 [ t1; t2; t3 ]
      @ epilogue_items env
      @ [ Asm.Insn (Insn.IndJmp t0) ]
  | Tail_call (Via_table (t, k)) ->
      mater_label ctx t0 (data_label t)
      @ [ Asm.Insn (Insn.Load (W64, t0, BReg t0, 8 * k)) ]
      @ epilogue_items env
      @ [ Asm.Insn (Insn.IndJmp t0) ]
  | Return e ->
      eval env e Reg.ret [ t0; t1; t2; t3 ]
      @ epilogue_items env @ [ Asm.Insn Insn.Ret ]
  | Print e -> eval env e t0 [ t1; t2; t3 ] @ [ Asm.Insn (Insn.Out t0) ]
  | Throw e -> eval env e Reg.r0 [ t0; t1; t2; t3 ] @ [ Asm.Insn Insn.Throw ]
  | Try (body, v, handler) ->
      let l_lo = fresh ctx "try" in
      let l_hi = fresh ctx "endtry" in
      let l_pad = fresh ctx "catch" in
      let l_end = fresh ctx "endcatch" in
      env.pads <- (l_lo, l_hi, l_pad) :: env.pads;
      (Asm.Label l_lo :: lower_stmts env body)
      @ [ Asm.Label l_hi; Asm.Jmp_to l_end; Asm.Label l_pad ]
      @ store_var env v Reg.r0 @ lower_stmts env handler @ [ Asm.Label l_end ]
  | Go_traceback -> [ Asm.Insn (Insn.CallRt (dyn_index ctx go_walk_sym)) ]
  | Nops n -> List.init n (fun _ -> Asm.Insn Insn.Nop)

and lower_switch env style scrutinee cases default : Asm.item list =
  let ctx = env.ctx in
  let n = Array.length cases in
  if n = 0 then invalid_arg (env.fname ^ ": empty switch");
  let l_default = fresh ctx "swdef" and l_end = fresh ctx "swend" in
  let l_tbl = fresh ctx "jtbl" and l_jmp = fresh ctx "jjmp" in
  let case_labels = Array.init n (fun i -> fresh ctx (Printf.sprintf "case%d" i)) in
  let bounds =
    eval env scrutinee t0 [ t1; t2; t3 ]
    @ [
        Asm.Insn (Insn.Cmp (t0, Imm 0));
        Asm.Jcc_to (Insn.Lt, l_default);
        Asm.Insn (Insn.Cmp (t0, Imm n));
        Asm.Jcc_to (Insn.Ge, l_default);
      ]
  in
  (* Case bodies, shared by every dispatch flavour. *)
  let case_items =
    List.concat
      (List.mapi
         (fun i body ->
           (Asm.Label case_labels.(i) :: lower_stmts env body)
           @ [ Asm.Jmp_to l_end ])
         (Array.to_list cases))
  in
  let tail =
    (Asm.Label l_default :: lower_stmts env default) @ [ Asm.Label l_end ]
  in
  let record ~base ~width ~scale ~in_code =
    ctx.jts <-
      {
        pj_func = env.fname;
        pj_jump = l_jmp;
        pj_table = l_tbl;
        pj_base = base;
        pj_width = width;
        pj_scale = scale;
        pj_cases = Array.to_list case_labels;
        pj_style = style;
        pj_in_code = in_code;
      }
      :: ctx.jts
  in
  (* Optionally spill/reload the freshly-materialized table base through the
     stack: the pattern that defeats analyses without memory tracking. *)
  let spill items =
    match style with
    | Ir.Jt_spilled_base ->
        items
        @ [
            Asm.Insn (Insn.Store (W64, BSp, slot_off env "$jtspill", t1));
            Asm.Insn Insn.Nop;
            Asm.Insn (Insn.Mov (t3, Imm 7));
            Asm.Insn (Insn.Add (t3, Reg t0));
            Asm.Insn (Insn.Load (W64, t1, BSp, slot_off env "$jtspill"));
          ]
    | Ir.Jt_plain | Ir.Jt_data_table -> items
  in
  match style with
  | Ir.Jt_data_table ->
      (* Dispatch through a writable pointer table in .data. *)
      push_data ctx
        (Asm.Align (8, `Zero) :: Asm.Label l_tbl
        :: List.map
             (fun c -> Asm.Data (Insn.W64, Asm.Addr c, `Reloc))
             (Array.to_list case_labels));
      record ~base:None ~width:Insn.W64 ~scale:1 ~in_code:false;
      bounds
      @ mater_label ctx t1 l_tbl
      @ [
          Asm.Insn (Insn.LoadIdx (W64, t2, t1, t0, 8));
          Asm.Label l_jmp;
          Asm.Insn (Insn.IndJmp t2);
        ]
      @ case_items @ tail
  | Ir.Jt_plain | Ir.Jt_spilled_base -> (
      match ctx.arch with
      | Arch.X86_64 ->
          push_rodata ctx
            (Asm.Align (4, `Zero) :: Asm.Label l_tbl
            :: List.map
                 (fun c -> Asm.Data (Insn.W32, Asm.Diff (c, l_tbl, 1), `No_reloc))
                 (Array.to_list case_labels));
          ctx.rodata_tables <- ctx.rodata_tables + 1;
          record ~base:(Some l_tbl) ~width:Insn.W32 ~scale:1 ~in_code:false;
          bounds
          @ spill (mater_label ctx t1 l_tbl)
          @ [
              Asm.Insn (Insn.LoadIdx (W32, t2, t1, t0, 4));
              Asm.Insn (Insn.Add (t2, Reg t1));
              Asm.Label l_jmp;
              Asm.Insn (Insn.IndJmp t2);
            ]
          @ case_items @ tail
      | Arch.Ppc64le ->
          (* Table embedded in .text right after the indirect jump. *)
          record ~base:None ~width:Insn.W64 ~scale:1 ~in_code:true;
          bounds
          @ spill (mater_label ctx t1 l_tbl)
          @ [
              Asm.Insn (Insn.LoadIdx (W64, t2, t1, t0, 8));
              Asm.Label l_jmp;
              Asm.Insn (Insn.IndJmp t2);
              Asm.Label l_tbl;
            ]
          @ List.map
              (fun c -> Asm.Data (Insn.W64, Asm.Addr c, `Reloc))
              (Array.to_list case_labels)
          @ case_items @ tail
      | Arch.Aarch64 ->
          (* Narrow, code-base-relative entries; the code base is the first
             case. Estimate the case-body extent to pick entry width. *)
          let l_base = case_labels.(0) in
          let est =
            List.fold_left
              (fun acc it -> acc + Asm.item_size ctx.arch ~pie:ctx.pie ~at:0 it)
              0 case_items
          in
          let width, scale_bytes =
            if est < 480 then (Insn.W8, 1) else (Insn.W16, 2)
          in
          (* aarch64 quirk: jump tables are separated by unrelated constant
             data (strings, numeric literals). *)
          let filler =
            if ctx.rodata_tables > 0 then
              [ Asm.Raw "aarch64-const-pool\000"; Asm.Align (2, `Zero) ]
            else [ Asm.Align (2, `Zero) ]
          in
          push_rodata ctx
            (filler
            @ (Asm.Label l_tbl
              :: List.map
                   (fun c -> Asm.Data (width, Asm.Diff (c, l_base, 4), `No_reloc))
                   (Array.to_list case_labels)));
          ctx.rodata_tables <- ctx.rodata_tables + 1;
          record ~base:(Some l_base) ~width ~scale:4 ~in_code:false;
          bounds
          @ spill (mater_label ctx t1 l_tbl)
          @ [
              Asm.Insn (Insn.LoadIdx (width, t2, t1, t0, scale_bytes));
              Asm.Insn (Insn.Shl (t2, 2));
              Asm.Lea_of (t3, l_base);
              Asm.Insn (Insn.Add (t2, Reg t3));
              Asm.Label l_jmp;
              Asm.Insn (Insn.IndJmp t2);
            ]
          @ case_items @ tail)

(* ------------------------------------------------------------------ *)
(* Function lowering                                                   *)
(* ------------------------------------------------------------------ *)

let lower_func ctx (f : Ir.func) : Asm.item list =
  let locals = Ir.locals_of_func f in
  let locals =
    locals
    @ (if List.exists stmt_needs_ptr_slot f.body then [ "$ptr" ] else [])
    @ if List.exists stmt_needs_spill f.body then [ "$jtspill" ] else []
  in
  let slots = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace slots v i) locals;
  let leaf = not (List.exists stmt_has_call f.body) in
  let has_lr = Arch.has_link_register ctx.arch in
  let frame =
    let vars = 8 * List.length locals in
    if has_lr && not leaf then vars + 8 else vars
  in
  let env = { ctx; fname = f.fname; slots; frame; leaf; pads = [] } in
  let prologue =
    (if frame = 0 then [] else [ Asm.Insn (Insn.AddSp (-frame)) ])
    @ (if has_lr && not leaf then
         [ Asm.Insn (Insn.Mflr t0); Asm.Insn (Insn.Store (W64, BSp, frame - 8, t0)) ]
       else [])
    @ List.concat
        (List.mapi
           (fun i p ->
             [ Asm.Insn (Insn.Store (W64, BSp, slot_off env p, List.nth Reg.arg_regs i)) ])
           f.params)
  in
  let body = lower_stmts env f.body in
  let needs_implicit_return =
    match List.rev f.body with
    | (Ir.Return _ | Ir.Tail_call _ | Ir.Throw _) :: _ -> false
    | _ -> true
  in
  let implicit =
    if needs_implicit_return then lower_stmt env (Ir.Return (Int 0)) else []
  in
  ctx.metas <-
    { fm_name = f.fname; fm_leaf = leaf; fm_frame = frame; fm_pads = env.pads }
    :: ctx.metas;
  [ Asm.Align (16, `Nop); Asm.Label f.fname ]
  @ prologue @ body @ implicit
  @ [ Asm.Label (f.fname ^ "$end") ]

(* ------------------------------------------------------------------ *)
(* Go runtime synthesis                                                *)
(* ------------------------------------------------------------------ *)

let go_runtime_funcs nfuncs : Ir.func list =
  let entry_expr =
    Ir.Bin (Badd, Addr_of "gopclntab", Bin (Badd, Int 8, Bin (Bmul, Var "i", Int 24)))
  in
  let lookup ret_field =
    [
      Ir.For
        ( "i",
          0,
          nfuncs,
          [
            Ir.Let ("base", entry_expr);
            Ir.If
              ( Insn.Ge,
                Var "pc",
                Load_mem (W64, Var "base"),
                [
                  Ir.If
                    ( Insn.Lt,
                      Var "pc",
                      Load_mem (W64, Bin (Badd, Var "base", Int 8)),
                      [ Ir.Return (ret_field (Ir.Var "base")) ],
                      [] );
                ],
                [] );
          ] );
      Ir.Return (Int (-1));
    ]
  in
  [
    Ir.func "runtime.findfunc" [ "pc" ]
      (lookup (fun base -> Ir.Load_mem (W64, Bin (Badd, base, Int 16))));
    Ir.func "runtime.pcvalue" [ "pc" ]
      (lookup (fun base ->
           Ir.Bin (Badd, Bin (Bmul, Load_mem (W64, Bin (Badd, base, Int 16)), Int 3), Int 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Data lowering                                                       *)
(* ------------------------------------------------------------------ *)

let lower_data ctx (d : Ir.data) =
  match d with
  | Word (g, v) ->
      push_data ctx
        [
          Asm.Align (8, `Zero);
          Asm.Label (data_label g);
          Asm.Data (Insn.W64, Asm.Const v, `No_reloc);
        ]
  | Word_addr (g, f) ->
      ctx.fps <- Pf_slot { label = data_label g; func = f; adjust = 0 } :: ctx.fps;
      push_data ctx
        [
          Asm.Align (8, `Zero);
          Asm.Label (data_label g);
          Asm.Data (Insn.W64, Asm.Addr f, `Reloc);
        ]
  | Func_table (t, fs) ->
      let items =
        List.concat
          (List.mapi
             (fun i f ->
               let l = data_label t ^ Printf.sprintf "$%d" i in
               ctx.fps <- Pf_slot { label = l; func = f; adjust = 0 } :: ctx.fps;
               [ Asm.Label l; Asm.Data (Insn.W64, Asm.Addr f, `Reloc) ])
             fs)
      in
      push_data ctx (Asm.Align (8, `Zero) :: Asm.Label (data_label t) :: items)
  | Word_array (g, vs) ->
      push_data ctx
        (Asm.Align (8, `Zero) :: Asm.Label (data_label g)
        :: List.map (fun v -> Asm.Data (Insn.W64, Asm.Const v, `No_reloc)) vs)
  | Cstring (g, s) ->
      push_rodata ctx [ Asm.Label (data_label g); Asm.Raw (s ^ "\000") ]

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)
(* ------------------------------------------------------------------ *)

let align_up n a = (n + a - 1) / a * a

let compile ?(pie = false) ?(bulk_data = 0) ?(link_relocs = false) arch (prog : Ir.program) =
  let ctx =
    {
      arch;
      pie;
      fresh = 0;
      rodata = [];
      data_items = [];
      jts = [];
      fps = [];
      metas = [];
      dyn_tbl = Hashtbl.create 8;
      dyn_names = [];
      rodata_tables = 0;
    }
  in
  let funcs =
    if prog.go_functab then
      prog.funcs @ go_runtime_funcs (List.length prog.funcs + 2)
    else prog.funcs
  in
  Ir.check { prog with Ir.funcs };
  (* Text stream: _start first, then every function. *)
  let start_items =
    [
      Asm.Label "_start";
      Asm.Call_to prog.main;
      Asm.Insn Insn.Halt;
      Asm.Label "_start$end";
    ]
  in
  let func_items = List.concat_map (lower_func ctx) funcs in
  List.iter (lower_data ctx) prog.data;
  (* Go function table: header word + (start, end, id) per function. *)
  let gopclntab_items =
    if not prog.go_functab then []
    else
      Asm.Align (8, `Zero) :: Asm.Label (data_label "gopclntab")
      :: Asm.Data (Insn.W64, Asm.Const (List.length funcs), `No_reloc)
      :: List.concat
           (List.mapi
              (fun i (f : Ir.func) ->
                [
                  Asm.Data (Insn.W64, Asm.Addr f.fname, `Reloc);
                  Asm.Data (Insn.W64, Asm.Addr (f.fname ^ "$end"), `Reloc);
                  Asm.Data (Insn.W64, Asm.Const (i + 1), `No_reloc);
                ])
              funcs)
  in
  let text_items = start_items @ func_items in
  let rodata_items = List.rev ctx.rodata in
  let data_items = List.rev ctx.data_items in

  (* Layout all streams in one label namespace. *)
  let labels = Hashtbl.create 256 in
  let text_lay = Asm.layout arch ~pie ~labels ~base:text_base text_items in
  let rodata_base = align_up text_lay.l_end 0x1000 in
  let rodata_lay = Asm.layout arch ~pie ~labels ~base:rodata_base rodata_items in
  let go_base = align_up rodata_lay.l_end 0x1000 in
  let go_lay = Asm.layout arch ~pie ~labels ~base:go_base gopclntab_items in
  let bulk_base = align_up go_lay.l_end 0x1000 in
  let bulk_end = bulk_base + align_up bulk_data 0x1000 in
  let data_base = align_up bulk_end 0x1000 in
  let data_lay = Asm.layout arch ~pie ~labels ~base:data_base data_items in
  let toc = if arch = Arch.Ppc64le then data_base + 0x8000 else 0 in

  (* Encode. *)
  let text_bytes, text_relocs = Asm.encode arch ~pie ~toc ~labels text_lay in
  let rodata_bytes, rodata_relocs = Asm.encode arch ~pie ~toc ~labels rodata_lay in
  let go_bytes, go_relocs = Asm.encode arch ~pie ~toc ~labels go_lay in
  let data_bytes, data_relocs = Asm.encode arch ~pie ~toc ~labels data_lay in
  let relocs = text_relocs @ rodata_relocs @ go_relocs @ data_relocs in

  let addr l = Asm.label_exn labels l in

  (* Dynamic-linking sections placed below .text; they become scratch space
     after the rewriter moves them. Contents are opaque filler. *)
  let dyn_names = List.rev ctx.dyn_names in
  let nfuncs = List.length funcs in
  let dynsym_size = 24 * (nfuncs + List.length dyn_names + 2) in
  let dynstr_size =
    List.fold_left (fun a (f : Ir.func) -> a + String.length f.fname + 1) 16 funcs
  in
  let rela_size = (24 * List.length relocs) + 24 in
  let filler n seed =
    Bytes.init n (fun i -> Char.chr ((i * 131 + seed) land 0xff))
  in
  let dyn_total = dynsym_size + dynstr_size + rela_size + 64 in
  let dynsym_base = text_base - align_up dyn_total 0x1000 in
  if dynsym_base < 0x10000 then invalid_arg "compile: dynamic sections too large";
  let dynstr_base = dynsym_base + dynsym_size in
  let rela_base = dynstr_base + dynstr_size in

  (* Symbols. *)
  let version_of i =
    if prog.features.symbol_versioning && i mod 5 = 0 then Some "ICFG_1.0"
    else None
  in
  let symbols =
    Symbol.make ~name:"_start" ~addr:(addr "_start")
      ~size:(addr "_start$end" - addr "_start")
      Symbol.Func
    :: List.mapi
         (fun i (f : Ir.func) ->
           let start = addr f.fname and stop = addr (f.fname ^ "$end") in
           Symbol.make ?version:(version_of i) ~name:f.fname ~addr:start
             ~size:(stop - start) Symbol.Func)
         funcs
  in

  (* FDEs: one per function (and _start). *)
  let fdes =
    List.filter_map
      (fun m ->
        let start = addr m.fm_name and stop = addr (m.fm_name ^ "$end") in
        let ra_loc =
          if Arch.has_link_register arch then
            if m.fm_leaf then Ehframe.Ra_in_lr
            else Ehframe.Ra_on_stack (m.fm_frame - 8)
          else Ehframe.Ra_on_stack m.fm_frame
        in
        let frame_size =
          if Arch.has_link_register arch then m.fm_frame else m.fm_frame + 8
        in
        let landing_pads =
          List.map (fun (lo, hi, h) -> (addr lo, addr hi, addr h)) m.fm_pads
        in
        Some { Ehframe.func_start = start; func_end = stop; frame_size; ra_loc; landing_pads })
      ctx.metas
    @ [
        {
          Ehframe.func_start = addr "_start";
          func_end = addr "_start$end";
          frame_size = (if Arch.has_link_register arch then 0 else 8);
          ra_loc =
            (if Arch.has_link_register arch then Ehframe.Ra_in_lr
             else Ehframe.Ra_on_stack 0);
          landing_pads = [];
        };
      ]
  in

  (* Resolve ground truth. *)
  let func_of_addr a =
    match
      List.find_opt
        (fun (f : Ir.func) ->
          a >= addr f.fname && a < addr (f.fname ^ "$end"))
        funcs
    with
    | Some f -> f.fname
    | None -> "_start"
  in
  let jump_tables =
    List.rev_map
      (fun pj ->
        {
          Debug.jt_func = pj.pj_func;
          jt_jump_addr = addr pj.pj_jump;
          jt_table_addr = addr pj.pj_table;
          jt_entry_width = pj.pj_width;
          jt_count = List.length pj.pj_cases;
          jt_targets = List.map addr pj.pj_cases;
          jt_base = (match pj.pj_base with Some b -> addr b | None -> 0);
          jt_scale = pj.pj_scale;
          jt_style = pj.pj_style;
          jt_in_code = pj.pj_in_code;
        })
      ctx.jts
  in
  let fptrs =
    List.rev_map
      (function
        | Pf_mater { label; len; func } ->
            Debug.Fp_mater { at = addr label; len; func; target = addr func }
        | Pf_slot { label; func; adjust } ->
            Debug.Fp_slot
              { slot = addr label; func; target = addr func; adjust })
      ctx.fps
  in
  let func_infos =
    List.map
      (fun m ->
        {
          Debug.fi_name = m.fm_name;
          fi_start = addr m.fm_name;
          fi_end = addr (m.fm_name ^ "$end");
          fi_leaf = m.fm_leaf;
        })
      (List.rev ctx.metas)
  in
  ignore func_of_addr;

  let sections =
    [
      Section.make ~name:".dynsym" ~vaddr:dynsym_base ~perm:Section.r_only
        (filler dynsym_size 3);
      Section.make ~name:".dynstr" ~vaddr:dynstr_base ~perm:Section.r_only
        (filler dynstr_size 5);
      Section.make ~name:".rela_dyn" ~vaddr:rela_base ~perm:Section.r_only
        (filler rela_size 7);
      Section.make ~name:".text" ~vaddr:text_base ~perm:Section.r_x text_bytes;
      Section.make ~name:".rodata" ~vaddr:rodata_base ~perm:Section.r_only
        rodata_bytes;
    ]
    @ (if Bytes.length go_bytes > 0 then
         [
           Section.make ~name:".gopclntab" ~vaddr:go_base ~perm:Section.r_only
             go_bytes;
         ]
       else [])
    @ (if bulk_data > 0 then
         [
           Section.make ~name:".bigdata" ~vaddr:bulk_base ~perm:Section.r_w
             ~size:(align_up bulk_data 0x1000) Bytes.empty;
         ]
       else [])
    @ [
        Section.make ~name:".data" ~vaddr:data_base ~perm:Section.r_w data_bytes;
        Section.make ~name:".eh_frame"
          ~vaddr:(align_up data_lay.l_end 0x1000)
          ~perm:Section.r_only
          (filler ((32 * List.length fdes) + 16) 11);
      ]
  in
  let link_reloc_entries =
    if not link_relocs then []
    else
      List.map
        (fun (f : Ir.func) ->
          Icfg_obj.Reloc.link ~offset:(addr f.fname) ~sym:f.fname ~addend:0)
        funcs
  in
  let binary =
    Binary.make ~pie ~relocs ~link_relocs:link_reloc_entries
      ~eh_frame:(Ehframe.of_fdes fdes) ~toc_base:toc
      ~dynsyms:(Array.of_list dyn_names) ~features:prog.features
      ~name:prog.name ~arch ~entry:(addr "_start") ~symbols sections
  in
  let debug = { Debug.jump_tables; fptrs; funcs = func_infos } in
  (binary, debug)
