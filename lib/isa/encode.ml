exception Not_encodable of string

let not_encodable fmt = Format.kasprintf (fun s -> raise (Not_encodable s)) fmt

let fits_signed v bits =
  let lim = 1 lsl (bits - 1) in
  v >= -lim && v < lim

let fits_unsigned v bits = v >= 0 && v < 1 lsl bits

let check_signed what v bits =
  if not (fits_signed v bits) then
    not_encodable "%s %d does not fit in %d signed bits" what v bits

let check_unsigned what v bits =
  if not (fits_unsigned v bits) then
    not_encodable "%s %d does not fit in %d unsigned bits" what v bits

let sign_extend v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* ------------------------------------------------------------------ *)
(* Field codecs shared by both encodings                               *)
(* ------------------------------------------------------------------ *)

let cond_to_int : Insn.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

let cond_of_int = function
  | 0 -> Insn.Eq
  | 1 -> Insn.Ne
  | 2 -> Insn.Lt
  | 3 -> Insn.Le
  | 4 -> Insn.Gt
  | 5 -> Insn.Ge
  | n -> invalid_arg (Printf.sprintf "cond_of_int %d" n)

let width_to_int : Insn.width -> int = function
  | W8 -> 0
  | W16 -> 1
  | W32 -> 2
  | W64 -> 3

let width_of_int = function
  | 0 -> Insn.W8
  | 1 -> Insn.W16
  | 2 -> Insn.W32
  | _ -> Insn.W64

let base_to_int : Insn.base -> int = function
  | BReg r -> Reg.index r
  | BSp -> 16

let base_of_int n = if n = 16 then Insn.BSp else Insn.BReg (Reg.make (n land 15))

(* ------------------------------------------------------------------ *)
(* Byte-buffer helpers                                                 *)
(* ------------------------------------------------------------------ *)

let put8 b pos v = Bytes.set_uint8 b pos (v land 0xff)
let put16 b pos v = Bytes.set_uint16_le b pos (v land 0xffff)
let put32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)
let put64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let get8u s pos = Char.code (String.unsafe_get s pos)
let get8s s pos = sign_extend (get8u s pos) 8
let get16u s pos = get8u s pos lor (get8u s (pos + 1) lsl 8)
let get16s s pos = sign_extend (get16u s pos) 16

let get32s s pos =
  sign_extend
    (get16u s pos lor (get16u s (pos + 2) lsl 16))
    32

let get64 s pos =
  let lo = get32s s pos land 0xFFFFFFFF in
  let hi = get32s s (pos + 4) in
  (hi lsl 32) lor lo

(* ------------------------------------------------------------------ *)
(* x86-64-flavoured variable-length encoding                           *)
(* ------------------------------------------------------------------ *)

(* Opcode map. Lengths mimic typical x86-64 instruction sizes. *)
let xop_illegal = 0x00
let xop_nop = 0x01
let xop_halt = 0x02
let xop_trap = 0x03
let xop_ret = 0x04
let xop_throw = 0x05
let xop_out = 0x06
let xop_mov_ri = 0x10
let xop_mov_rr = 0x11
let xop_movabs = 0x12
let xop_movhi = 0x13
let xop_orlo = 0x14
let xop_add_ri = 0x15
let xop_add_rr = 0x16
let xop_sub_ri = 0x17
let xop_sub_rr = 0x18
let xop_mul_ri = 0x19
let xop_mul_rr = 0x1a
let xop_and_ri = 0x1b
let xop_and_rr = 0x1c
let xop_or_ri = 0x1d
let xop_or_rr = 0x1e
let xop_xor_ri = 0x1f
let xop_xor_rr = 0x20
let xop_cmp_ri = 0x21
let xop_cmp_rr = 0x22
let xop_shl = 0x23
let xop_shr = 0x24
let xop_load = 0x25
let xop_store = 0x26
let xop_loadidx = 0x27
let xop_lea = 0x28
let xop_addsp = 0x29
let xop_jmp_short = 0x2a
let xop_jmp_near = 0x2b
let xop_call = 0x2d
let xop_indjmp = 0x2e
let xop_indcall = 0x2f
let xop_jcc_short = 0x30 (* .. 0x35 *)
let xop_jcc_near = 0x38 (* .. 0x3d *)
let xop_indcallmem = 0x3e
let xop_callrt = 0x3f

let x86_alu_ri_len = 6
let x86_alu_rr_len = 3

let x86_length (i : Insn.t) =
  match i with
  | Illegal | Nop | Halt | Trap | Ret | Throw -> 1
  | Out _ -> 2
  | Mov (_, Imm _) -> 6
  | Mov (_, Reg _) -> x86_alu_rr_len
  | Movabs _ -> 10
  | Movhi _ | Orlo _ -> 4
  | Add (_, Imm _) | Sub (_, Imm _) | Mul (_, Imm _) | And_ (_, Imm _)
  | Or_ (_, Imm _) | Xor (_, Imm _) | Cmp (_, Imm _) ->
      x86_alu_ri_len
  | Add (_, Reg _) | Sub (_, Reg _) | Mul (_, Reg _) | And_ (_, Reg _)
  | Or_ (_, Reg _) | Xor (_, Reg _) | Cmp (_, Reg _) ->
      x86_alu_rr_len
  | Shl _ | Shr _ -> 3
  | Load _ | Store _ -> 7
  | LoadIdx _ -> 5
  | Lea _ -> 7
  | AddSp _ -> 5
  | Jmp _ -> 5 (* canonical near form *)
  | Jcc _ -> 6
  | Call _ -> 5
  | IndJmp _ | IndCall _ -> 2
  | IndCallMem _ -> 6
  | CallRt _ -> 5
  | Mflr _ | Mtlr _ | Mttar _ | Btar | Adrp _ | Addis _ ->
      not_encodable "%s is not an x86-64 instruction" (Insn.to_string i)

let x86_encode_into b ~pos (i : Insn.t) =
  let op1 code =
    put8 b pos code;
    1
  in
  let op_r code r =
    put8 b pos code;
    put8 b (pos + 1) (Reg.index r);
    2
  in
  let op_rr code rd rs =
    put8 b pos code;
    put8 b (pos + 1) ((Reg.index rd lsl 4) lor Reg.index rs);
    put8 b (pos + 2) 0;
    3
  in
  let op_ri32 code r v =
    check_signed "immediate" v 32;
    put8 b pos code;
    put8 b (pos + 1) (Reg.index r);
    put32 b (pos + 2) v;
    6
  in
  let op_ri16 code r v =
    check_signed "immediate" v 17;
    put8 b pos code;
    put8 b (pos + 1) (Reg.index r);
    put16 b (pos + 2) v;
    4
  in
  let alu code_ri code_rr r (o : Insn.operand) =
    match o with Imm v -> op_ri32 code_ri r v | Reg rs -> op_rr code_rr r rs
  in
  match i with
  | Illegal -> op1 xop_illegal
  | Nop -> op1 xop_nop
  | Halt -> op1 xop_halt
  | Trap -> op1 xop_trap
  | Ret -> op1 xop_ret
  | Throw -> op1 xop_throw
  | Out r -> op_r xop_out r
  | Mov (r, Imm v) -> op_ri32 xop_mov_ri r v
  | Mov (r, Reg rs) -> op_rr xop_mov_rr r rs
  | Movabs (r, v) ->
      put8 b pos xop_movabs;
      put8 b (pos + 1) (Reg.index r);
      put64 b (pos + 2) v;
      10
  | Movhi (r, v) -> op_ri16 xop_movhi r v
  | Orlo (r, v) ->
      check_unsigned "orlo immediate" v 16;
      put8 b pos xop_orlo;
      put8 b (pos + 1) (Reg.index r);
      put16 b (pos + 2) v;
      4
  | Add (r, o) -> alu xop_add_ri xop_add_rr r o
  | Sub (r, o) -> alu xop_sub_ri xop_sub_rr r o
  | Mul (r, o) -> alu xop_mul_ri xop_mul_rr r o
  | And_ (r, o) -> alu xop_and_ri xop_and_rr r o
  | Or_ (r, o) -> alu xop_or_ri xop_or_rr r o
  | Xor (r, o) -> alu xop_xor_ri xop_xor_rr r o
  | Cmp (r, o) -> alu xop_cmp_ri xop_cmp_rr r o
  | Shl (r, v) | Shr (r, v) ->
      check_unsigned "shift amount" v 6;
      put8 b pos (match i with Shl _ -> xop_shl | _ -> xop_shr);
      put8 b (pos + 1) (Reg.index r);
      put8 b (pos + 2) v;
      3
  | Load (w, rd, base, disp) ->
      check_signed "displacement" disp 32;
      put8 b pos xop_load;
      put8 b (pos + 1) ((width_to_int w lsl 4) lor Reg.index rd);
      put8 b (pos + 2) (base_to_int base);
      put32 b (pos + 3) disp;
      7
  | Store (w, base, disp, rs) ->
      check_signed "displacement" disp 32;
      put8 b pos xop_store;
      put8 b (pos + 1) ((width_to_int w lsl 4) lor Reg.index rs);
      put8 b (pos + 2) (base_to_int base);
      put32 b (pos + 3) disp;
      7
  | LoadIdx (w, rd, rb, ri, scale) ->
      check_unsigned "scale" scale 4;
      put8 b pos xop_loadidx;
      put8 b (pos + 1) ((width_to_int w lsl 4) lor Reg.index rd);
      put8 b (pos + 2) (Reg.index rb);
      put8 b (pos + 3) (Reg.index ri);
      put8 b (pos + 4) scale;
      5
  | Lea (r, disp) ->
      check_signed "displacement" disp 32;
      put8 b pos xop_lea;
      put8 b (pos + 1) (Reg.index r);
      put32 b (pos + 2) disp;
      put8 b (pos + 6) 0;
      7
  | AddSp v ->
      check_signed "immediate" v 32;
      put8 b pos xop_addsp;
      put32 b (pos + 1) v;
      5
  | Jmp disp ->
      check_signed "branch displacement" disp 32;
      put8 b pos xop_jmp_near;
      put32 b (pos + 1) disp;
      5
  | Jcc (c, disp) ->
      check_signed "branch displacement" disp 32;
      put8 b pos (xop_jcc_near + cond_to_int c);
      put32 b (pos + 1) disp;
      put8 b (pos + 5) 0;
      6
  | Call disp ->
      check_signed "branch displacement" disp 32;
      put8 b pos xop_call;
      put32 b (pos + 1) disp;
      5
  | IndJmp r -> op_r xop_indjmp r
  | IndCall r -> op_r xop_indcall r
  | IndCallMem (base, disp) ->
      check_signed "displacement" disp 32;
      put8 b pos xop_indcallmem;
      put8 b (pos + 1) (base_to_int base);
      put32 b (pos + 2) disp;
      6
  | CallRt idx ->
      check_unsigned "runtime routine index" idx 32;
      put8 b pos xop_callrt;
      put32 b (pos + 1) idx;
      5
  | Mflr _ | Mtlr _ | Mttar _ | Btar | Adrp _ | Addis _ ->
      not_encodable "%s is not an x86-64 instruction" (Insn.to_string i)

let x86_decode s ~pos : Insn.t * int =
  let len = String.length s in
  let have n = pos + n <= len in
  let opc = get8u s pos in
  let illegal = (Insn.Illegal, 1) in
  let rd_rs k =
    if not (have 3) then illegal
    else
      let byte = get8u s (pos + 1) in
      (k (Reg.make (byte lsr 4)) (Reg.make (byte land 15)), 3)
  in
  let r_imm32 k =
    if not (have 6) then illegal
    else (k (Reg.make (get8u s (pos + 1) land 15)) (get32s s (pos + 2)), 6)
  in
  let r_imm16 k =
    if not (have 4) then illegal
    else (k (Reg.make (get8u s (pos + 1) land 15)) (get16s s (pos + 2)), 4)
  in
  let reg_only k =
    if not (have 2) then illegal
    else (k (Reg.make (get8u s (pos + 1) land 15)), 2)
  in
  if opc = xop_illegal then illegal
  else if opc = xop_nop then (Nop, 1)
  else if opc = xop_halt then (Halt, 1)
  else if opc = xop_trap then (Trap, 1)
  else if opc = xop_ret then (Ret, 1)
  else if opc = xop_throw then (Throw, 1)
  else if opc = xop_out then reg_only (fun r -> Insn.Out r)
  else if opc = xop_mov_ri then r_imm32 (fun r v -> Insn.Mov (r, Imm v))
  else if opc = xop_mov_rr then rd_rs (fun rd rs -> Insn.Mov (rd, Reg rs))
  else if opc = xop_movabs then
    if not (have 10) then illegal
    else (Movabs (Reg.make (get8u s (pos + 1) land 15), get64 s (pos + 2)), 10)
  else if opc = xop_movhi then r_imm16 (fun r v -> Insn.Movhi (r, v))
  else if opc = xop_orlo then
    if not (have 4) then illegal
    else (Orlo (Reg.make (get8u s (pos + 1) land 15), get16u s (pos + 2)), 4)
  else if opc = xop_add_ri then r_imm32 (fun r v -> Insn.Add (r, Imm v))
  else if opc = xop_add_rr then rd_rs (fun rd rs -> Insn.Add (rd, Reg rs))
  else if opc = xop_sub_ri then r_imm32 (fun r v -> Insn.Sub (r, Imm v))
  else if opc = xop_sub_rr then rd_rs (fun rd rs -> Insn.Sub (rd, Reg rs))
  else if opc = xop_mul_ri then r_imm32 (fun r v -> Insn.Mul (r, Imm v))
  else if opc = xop_mul_rr then rd_rs (fun rd rs -> Insn.Mul (rd, Reg rs))
  else if opc = xop_and_ri then r_imm32 (fun r v -> Insn.And_ (r, Imm v))
  else if opc = xop_and_rr then rd_rs (fun rd rs -> Insn.And_ (rd, Reg rs))
  else if opc = xop_or_ri then r_imm32 (fun r v -> Insn.Or_ (r, Imm v))
  else if opc = xop_or_rr then rd_rs (fun rd rs -> Insn.Or_ (rd, Reg rs))
  else if opc = xop_xor_ri then r_imm32 (fun r v -> Insn.Xor (r, Imm v))
  else if opc = xop_xor_rr then rd_rs (fun rd rs -> Insn.Xor (rd, Reg rs))
  else if opc = xop_cmp_ri then r_imm32 (fun r v -> Insn.Cmp (r, Imm v))
  else if opc = xop_cmp_rr then rd_rs (fun rd rs -> Insn.Cmp (rd, Reg rs))
  else if opc = xop_shl || opc = xop_shr then
    if not (have 3) then illegal
    else
      let r = Reg.make (get8u s (pos + 1) land 15) in
      let v = get8u s (pos + 2) in
      ((if opc = xop_shl then Insn.Shl (r, v) else Insn.Shr (r, v)), 3)
  else if opc = xop_load || opc = xop_store then
    if not (have 7) then illegal
    else
      let b1 = get8u s (pos + 1) in
      let w = width_of_int (b1 lsr 4) in
      let r = Reg.make (b1 land 15) in
      let base = base_of_int (get8u s (pos + 2) land 31) in
      let disp = get32s s (pos + 3) in
      ( (if opc = xop_load then Insn.Load (w, r, base, disp)
         else Insn.Store (w, base, disp, r)),
        7 )
  else if opc = xop_loadidx then
    if not (have 5) then illegal
    else
      let b1 = get8u s (pos + 1) in
      ( LoadIdx
          ( width_of_int (b1 lsr 4),
            Reg.make (b1 land 15),
            Reg.make (get8u s (pos + 2) land 15),
            Reg.make (get8u s (pos + 3) land 15),
            get8u s (pos + 4) land 15 ),
        5 )
  else if opc = xop_lea then
    if not (have 7) then illegal
    else (Lea (Reg.make (get8u s (pos + 1) land 15), get32s s (pos + 2)), 7)
  else if opc = xop_addsp then
    if not (have 5) then illegal else (AddSp (get32s s (pos + 1)), 5)
  else if opc = xop_jmp_short then
    if not (have 2) then illegal else (Jmp (get8s s (pos + 1)), 2)
  else if opc = xop_jmp_near then
    if not (have 5) then illegal else (Jmp (get32s s (pos + 1)), 5)
  else if opc = xop_call then
    if not (have 5) then illegal else (Call (get32s s (pos + 1)), 5)
  else if opc = xop_indjmp then reg_only (fun r -> Insn.IndJmp r)
  else if opc = xop_indcall then reg_only (fun r -> Insn.IndCall r)
  else if opc >= xop_jcc_short && opc < xop_jcc_short + 6 then
    if not (have 2) then illegal
    else (Jcc (cond_of_int (opc - xop_jcc_short), get8s s (pos + 1)), 2)
  else if opc >= xop_jcc_near && opc < xop_jcc_near + 6 then
    if not (have 6) then illegal
    else (Jcc (cond_of_int (opc - xop_jcc_near), get32s s (pos + 1)), 6)
  else if opc = xop_indcallmem then
    if not (have 6) then illegal
    else
      (IndCallMem (base_of_int (get8u s (pos + 1) land 31), get32s s (pos + 2)), 6)
  else if opc = xop_callrt then
    if not (have 5) then illegal
    else (CallRt (get32s s (pos + 1) land 0xFFFF), 5)
  else illegal

(* ------------------------------------------------------------------ *)
(* Fixed-length 4-byte encoding (ppc64le and aarch64 flavours)         *)
(* ------------------------------------------------------------------ *)

(* Word layout: bits 31..26 = opcode, bits 25..0 = payload (low-aligned
   fields, documented per opcode below). *)

let rop_illegal = 0
let rop_nop = 1
let rop_halt = 2
let rop_trap = 3
let rop_ret = 4
let rop_throw = 5
let rop_out = 6 (* reg[3:0] *)
let rop_mov_ri = 7 (* rd[19:16] imm16[15:0] *)
let rop_mov_rr = 8 (* rd[7:4] rs[3:0] *)
let rop_movhi = 9
let rop_orlo = 10
let rop_add_ri = 11
let rop_sub_ri = 12
let rop_mul_ri = 13
let rop_and_ri = 14
let rop_or_ri = 15
let rop_xor_ri = 16
let rop_cmp_ri = 17
let rop_add_rr = 18
let rop_sub_rr = 19
let rop_mul_rr = 20
let rop_and_rr = 21
let rop_or_rr = 22
let rop_xor_rr = 23
let rop_cmp_rr = 24
let rop_shl = 25 (* rd[9:6] imm6[5:0] *)
let rop_shr = 26
let rop_load = 27 (* w[24:23] rd[22:19] base[18:14] disp14[13:0] *)
let rop_store = 28
let rop_loadidx = 29 (* w[17:16] rd[15:12] rb[11:8] ri[7:4] scale[3:0] *)
let rop_lea = 30 (* rd[23:20] disp20[19:0] *)
let rop_addsp = 31 (* imm20[19:0] *)
let rop_jmp = 32 (* disp in insn units, width per arch *)
let rop_jcc = 33 (* cond[16:14] disp14[13:0] in insn units *)
let rop_call = 34
let rop_indjmp = 35
let rop_indcall = 36
let rop_indcallmem = 37 (* base[18:14] disp14[13:0] *)
let rop_callrt = 38 (* idx[15:0] *)
let rop_mflr = 39
let rop_mtlr = 40
let rop_mttar = 41
let rop_btar = 42
let rop_adrp = 43 (* rd[24:21] pages21[20:0] *)
let rop_addis = 44 (* rd[23:20] rs[19:16] imm16[15:0] *)

let branch_disp_bits ?(opcode = "branch") (arch : Arch.t) =
  (* Displacement field width in 4-byte instruction units: 24 bits gives
     +/-32 MiB (ppc64le b), 26 bits gives +/-128 MiB (aarch64 b). x86-64
     branches encode byte displacements, so asking is a caller bug — name
     the opcode instead of dying as a bare [Assert_failure]. *)
  match arch with
  | Arch.Ppc64le -> 24
  | Arch.Aarch64 -> 26
  | Arch.X86_64 ->
      invalid_arg
        (Printf.sprintf
           "Encode.branch_disp_bits: x86-64 %s uses byte-granular \
            displacements, not 4-byte instruction units"
           opcode)

let risc_word arch (i : Insn.t) =
  let mk opc payload = (opc lsl 26) lor (payload land 0x3FFFFFF) in
  let r4 r = Reg.index r land 15 in
  let ri16 opc rd v =
    check_signed "immediate" v 16;
    mk opc ((r4 rd lsl 16) lor (v land 0xFFFF))
  in
  let rr opc rd rs = mk opc ((r4 rd lsl 4) lor r4 rs) in
  let mem opc w r base disp =
    check_signed "displacement" disp 14;
    mk opc
      ((width_to_int w lsl 23)
      lor (r4 r lsl 19)
      lor ((base_to_int base land 31) lsl 14)
      lor (disp land 0x3FFF))
  in
  let branch opc disp =
    if disp land 3 <> 0 then
      not_encodable "branch displacement %d is not 4-byte aligned" disp;
    let units = disp asr 2 in
    let opcode =
      if opc = rop_call then "call" else if opc = rop_jcc then "jcc" else "jmp"
    in
    let bits = branch_disp_bits ~opcode arch in
    if not (fits_signed units bits) then
      not_encodable "branch displacement %d out of range" disp;
    mk opc (units land ((1 lsl bits) - 1))
  in
  let alu_ri opc rd v = ri16 opc rd v in
  match i with
  | Illegal -> mk rop_illegal 0
  | Nop -> mk rop_nop 0
  | Halt -> mk rop_halt 0
  | Trap -> mk rop_trap 0
  | Ret -> mk rop_ret 0
  | Throw -> mk rop_throw 0
  | Out r -> mk rop_out (r4 r)
  | Mov (r, Imm v) -> alu_ri rop_mov_ri r v
  | Mov (rd, Reg rs) -> rr rop_mov_rr rd rs
  | Movhi (r, v) -> ri16 rop_movhi r v
  | Orlo (r, v) ->
      check_unsigned "orlo immediate" v 16;
      mk rop_orlo ((r4 r lsl 16) lor (v land 0xFFFF))
  | Movabs _ -> not_encodable "movabs requires the x86-64 flavour"
  | Add (r, Imm v) -> alu_ri rop_add_ri r v
  | Add (rd, Reg rs) -> rr rop_add_rr rd rs
  | Sub (r, Imm v) -> alu_ri rop_sub_ri r v
  | Sub (rd, Reg rs) -> rr rop_sub_rr rd rs
  | Mul (r, Imm v) -> alu_ri rop_mul_ri r v
  | Mul (rd, Reg rs) -> rr rop_mul_rr rd rs
  | And_ (r, Imm v) -> alu_ri rop_and_ri r v
  | And_ (rd, Reg rs) -> rr rop_and_rr rd rs
  | Or_ (r, Imm v) -> alu_ri rop_or_ri r v
  | Or_ (rd, Reg rs) -> rr rop_or_rr rd rs
  | Xor (r, Imm v) -> alu_ri rop_xor_ri r v
  | Xor (rd, Reg rs) -> rr rop_xor_rr rd rs
  | Cmp (r, Imm v) -> alu_ri rop_cmp_ri r v
  | Cmp (rd, Reg rs) -> rr rop_cmp_rr rd rs
  | Shl (r, v) ->
      check_unsigned "shift amount" v 6;
      mk rop_shl ((r4 r lsl 6) lor v)
  | Shr (r, v) ->
      check_unsigned "shift amount" v 6;
      mk rop_shr ((r4 r lsl 6) lor v)
  | Load (w, rd, base, disp) -> mem rop_load w rd base disp
  | Store (w, base, disp, rs) -> mem rop_store w rs base disp
  | LoadIdx (w, rd, rb, ri, scale) ->
      check_unsigned "scale" scale 4;
      mk rop_loadidx
        ((width_to_int w lsl 16)
        lor (r4 rd lsl 12)
        lor (r4 rb lsl 8)
        lor (r4 ri lsl 4)
        lor scale)
  | Lea (r, disp) ->
      check_signed "lea displacement" disp 20;
      mk rop_lea ((r4 r lsl 20) lor (disp land 0xFFFFF))
  | AddSp v ->
      check_signed "immediate" v 20;
      mk rop_addsp (v land 0xFFFFF)
  | Jmp disp -> branch rop_jmp disp
  | Jcc (c, disp) ->
      if disp land 3 <> 0 then
        not_encodable "branch displacement %d is not 4-byte aligned" disp;
      let units = disp asr 2 in
      check_signed "conditional branch displacement" units 14;
      mk rop_jcc ((cond_to_int c lsl 14) lor (units land 0x3FFF))
  | Call disp -> branch rop_call disp
  | IndJmp r -> mk rop_indjmp (r4 r)
  | IndCall r -> mk rop_indcall (r4 r)
  | IndCallMem (base, disp) ->
      check_signed "displacement" disp 14;
      mk rop_indcallmem (((base_to_int base land 31) lsl 14) lor (disp land 0x3FFF))
  | CallRt idx ->
      check_unsigned "runtime routine index" idx 16;
      mk rop_callrt idx
  | Mflr r -> mk rop_mflr (r4 r)
  | Mtlr r -> mk rop_mtlr (r4 r)
  | Mttar r -> mk rop_mttar (r4 r)
  | Btar -> mk rop_btar 0
  | Adrp (r, disp) ->
      if disp land 4095 <> 0 then
        not_encodable "adrp displacement %d is not page aligned" disp;
      let pages = disp asr 12 in
      check_signed "adrp page displacement" pages 21;
      mk rop_adrp ((r4 r lsl 21) lor (pages land 0x1FFFFF))
  | Addis (rd, rs, v) ->
      check_signed "addis immediate" v 16;
      mk rop_addis ((r4 rd lsl 20) lor (r4 rs lsl 16) lor (v land 0xFFFF))

let risc_decode arch s ~pos : Insn.t * int =
  if pos + 4 > String.length s then (Insn.Illegal, 4)
  else
    let w =
      get8u s pos
      lor (get8u s (pos + 1) lsl 8)
      lor (get8u s (pos + 2) lsl 16)
      lor (get8u s (pos + 3) lsl 24)
    in
    let opc = (w lsr 26) land 63 in
    let payload = w land 0x3FFFFFF in
    let r4 shift = Reg.make ((payload lsr shift) land 15) in
    let imm16s = sign_extend (payload land 0xFFFF) 16 in
    let insn : Insn.t =
      if opc = rop_illegal then Illegal
      else if opc = rop_nop then Nop
      else if opc = rop_halt then Halt
      else if opc = rop_trap then Trap
      else if opc = rop_ret then Ret
      else if opc = rop_throw then Throw
      else if opc = rop_out then Out (r4 0)
      else if opc = rop_mov_ri then Mov (r4 16, Imm imm16s)
      else if opc = rop_mov_rr then Mov (r4 4, Reg (r4 0))
      else if opc = rop_movhi then Movhi (r4 16, imm16s)
      else if opc = rop_orlo then Orlo (r4 16, payload land 0xFFFF)
      else if opc = rop_add_ri then Add (r4 16, Imm imm16s)
      else if opc = rop_sub_ri then Sub (r4 16, Imm imm16s)
      else if opc = rop_mul_ri then Mul (r4 16, Imm imm16s)
      else if opc = rop_and_ri then And_ (r4 16, Imm imm16s)
      else if opc = rop_or_ri then Or_ (r4 16, Imm imm16s)
      else if opc = rop_xor_ri then Xor (r4 16, Imm imm16s)
      else if opc = rop_cmp_ri then Cmp (r4 16, Imm imm16s)
      else if opc = rop_add_rr then Add (r4 4, Reg (r4 0))
      else if opc = rop_sub_rr then Sub (r4 4, Reg (r4 0))
      else if opc = rop_mul_rr then Mul (r4 4, Reg (r4 0))
      else if opc = rop_and_rr then And_ (r4 4, Reg (r4 0))
      else if opc = rop_or_rr then Or_ (r4 4, Reg (r4 0))
      else if opc = rop_xor_rr then Xor (r4 4, Reg (r4 0))
      else if opc = rop_cmp_rr then Cmp (r4 4, Reg (r4 0))
      else if opc = rop_shl then Shl (r4 6, payload land 63)
      else if opc = rop_shr then Shr (r4 6, payload land 63)
      else if opc = rop_load || opc = rop_store then
        let w' = width_of_int ((payload lsr 23) land 3) in
        let r = r4 19 in
        let base = base_of_int ((payload lsr 14) land 31) in
        let disp = sign_extend (payload land 0x3FFF) 14 in
        if opc = rop_load then Load (w', r, base, disp)
        else Store (w', base, disp, r)
      else if opc = rop_loadidx then
        LoadIdx
          ( width_of_int ((payload lsr 16) land 3),
            r4 12,
            r4 8,
            r4 4,
            payload land 15 )
      else if opc = rop_lea then
        Lea (r4 20, sign_extend (payload land 0xFFFFF) 20)
      else if opc = rop_addsp then AddSp (sign_extend (payload land 0xFFFFF) 20)
      else if opc = rop_jmp || opc = rop_call then
        let bits = branch_disp_bits arch in
        let disp = sign_extend (payload land ((1 lsl bits) - 1)) bits * 4 in
        if opc = rop_jmp then Jmp disp else Call disp
      else if opc = rop_jcc then
        let c = (payload lsr 14) land 7 in
        (* Conditions 6 and 7 encode nothing. *)
        if c > 5 then Illegal
        else Jcc (cond_of_int c, sign_extend (payload land 0x3FFF) 14 * 4)
      else if opc = rop_indjmp then IndJmp (r4 0)
      else if opc = rop_indcall then IndCall (r4 0)
      else if opc = rop_indcallmem then
        IndCallMem
          ( base_of_int ((payload lsr 14) land 31),
            sign_extend (payload land 0x3FFF) 14 )
      else if opc = rop_callrt then CallRt (payload land 0xFFFF)
      else if opc = rop_mflr then Mflr (r4 0)
      else if opc = rop_mtlr then Mtlr (r4 0)
      else if opc = rop_mttar then Mttar (r4 0)
      else if opc = rop_btar then Btar
      else if opc = rop_adrp then
        Adrp (r4 21, sign_extend (payload land 0x1FFFFF) 21 * 4096)
      else if opc = rop_addis then Addis (r4 20, r4 16, imm16s)
      else Illegal
    in
    (insn, 4)

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let length arch i =
  match arch with
  | Arch.X86_64 -> x86_length i
  | Arch.Ppc64le | Arch.Aarch64 ->
      (* Validate encodability eagerly so [length] and [encode] agree. *)
      ignore (risc_word arch i);
      4

let encode_into arch b ~pos i =
  match arch with
  | Arch.X86_64 -> x86_encode_into b ~pos i
  | Arch.Ppc64le | Arch.Aarch64 ->
      let w = risc_word arch i in
      put32 b pos w;
      4

let encode arch i =
  let b = Bytes.make 16 '\000' in
  let n = encode_into arch b ~pos:0 i in
  Bytes.sub_string b 0 n

let decode arch s ~pos =
  if pos >= String.length s then (Insn.Illegal, Arch.min_insn_size arch)
  else
    match arch with
    | Arch.X86_64 -> x86_decode s ~pos
    | Arch.Ppc64le | Arch.Aarch64 -> risc_decode arch s ~pos

let decode_bytes arch b ~pos = decode arch (Bytes.unsafe_to_string b) ~pos

let short_jmp_len = function Arch.X86_64 -> 2 | Arch.Ppc64le | Arch.Aarch64 -> 4
let wide_jmp_len = function Arch.X86_64 -> 5 | Arch.Ppc64le | Arch.Aarch64 -> 4

let jmp_fits arch ~wide d =
  match arch with
  | Arch.X86_64 -> if wide then fits_signed d 32 else fits_signed d 8
  | Arch.Ppc64le | Arch.Aarch64 ->
      d land 3 = 0 && fits_signed (d asr 2) (branch_disp_bits arch)

let encode_jmp arch ~wide d =
  match arch with
  | Arch.X86_64 ->
      if wide then (
        check_signed "branch displacement" d 32;
        let b = Bytes.make 5 '\000' in
        put8 b 0 xop_jmp_near;
        put32 b 1 d;
        Bytes.to_string b)
      else (
        check_signed "branch displacement" d 8;
        let b = Bytes.make 2 '\000' in
        put8 b 0 xop_jmp_short;
        put8 b 1 d;
        Bytes.to_string b)
  | Arch.Ppc64le | Arch.Aarch64 -> encode arch (Jmp d)

let max_insn_len = function Arch.X86_64 -> 15 | Arch.Ppc64le | Arch.Aarch64 -> 4
