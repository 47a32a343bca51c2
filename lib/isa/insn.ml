type width = W8 | W16 | W32 | W64

let width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let width_of_bytes = function
  | 1 -> W8
  | 2 -> W16
  | 4 -> W32
  | 8 -> W64
  | n -> invalid_arg (Printf.sprintf "Insn.width_of_bytes: %d" n)

type cond = Eq | Ne | Lt | Le | Gt | Ge

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

type operand = Reg of Reg.t | Imm of int
type base = BReg of Reg.t | BSp

type t =
  | Nop
  | Halt
  | Trap
  | Illegal
  | Mov of Reg.t * operand
  | Movhi of Reg.t * int
  | Orlo of Reg.t * int
  | Movabs of Reg.t * int
  | Add of Reg.t * operand
  | Sub of Reg.t * operand
  | Mul of Reg.t * operand
  | And_ of Reg.t * operand
  | Or_ of Reg.t * operand
  | Xor of Reg.t * operand
  | Shl of Reg.t * int
  | Shr of Reg.t * int
  | Cmp of Reg.t * operand
  | Load of width * Reg.t * base * int
  | Store of width * base * int * Reg.t
  | LoadIdx of width * Reg.t * Reg.t * Reg.t * int
  | Lea of Reg.t * int
  | AddSp of int
  | Jmp of int
  | Jcc of cond * int
  | Call of int
  | IndJmp of Reg.t
  | IndCall of Reg.t
  | IndCallMem of base * int
  | Ret
  | CallRt of int
  | Throw
  | Out of Reg.t
  | Mflr of Reg.t
  | Mtlr of Reg.t
  | Mttar of Reg.t
  | Btar
  | Adrp of Reg.t * int
  | Addis of Reg.t * Reg.t * int

let pp_cond ppf c =
  Format.pp_print_string ppf
    (match c with
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Le -> "le"
    | Gt -> "gt"
    | Ge -> "ge")

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm n -> Format.fprintf ppf "$%d" n

let pp_base ppf = function
  | BReg r -> Reg.pp ppf r
  | BSp -> Format.pp_print_string ppf "sp"

let pp_width ppf w = Format.fprintf ppf "%d" (width_bytes w)

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Halt -> Format.pp_print_string ppf "halt"
  | Trap -> Format.pp_print_string ppf "trap"
  | Illegal -> Format.pp_print_string ppf "(illegal)"
  | Mov (r, o) -> Format.fprintf ppf "mov %a, %a" Reg.pp r pp_operand o
  | Movhi (r, n) -> Format.fprintf ppf "movhi %a, %d" Reg.pp r n
  | Orlo (r, n) -> Format.fprintf ppf "orlo %a, %d" Reg.pp r n
  | Movabs (r, n) -> Format.fprintf ppf "movabs %a, %d" Reg.pp r n
  | Add (r, o) -> Format.fprintf ppf "add %a, %a" Reg.pp r pp_operand o
  | Sub (r, o) -> Format.fprintf ppf "sub %a, %a" Reg.pp r pp_operand o
  | Mul (r, o) -> Format.fprintf ppf "mul %a, %a" Reg.pp r pp_operand o
  | And_ (r, o) -> Format.fprintf ppf "and %a, %a" Reg.pp r pp_operand o
  | Or_ (r, o) -> Format.fprintf ppf "or %a, %a" Reg.pp r pp_operand o
  | Xor (r, o) -> Format.fprintf ppf "xor %a, %a" Reg.pp r pp_operand o
  | Shl (r, n) -> Format.fprintf ppf "shl %a, %d" Reg.pp r n
  | Shr (r, n) -> Format.fprintf ppf "shr %a, %d" Reg.pp r n
  | Cmp (r, o) -> Format.fprintf ppf "cmp %a, %a" Reg.pp r pp_operand o
  | Load (w, rd, b, d) ->
      Format.fprintf ppf "ld%a %a, [%a%+d]" pp_width w Reg.pp rd pp_base b d
  | Store (w, b, d, rs) ->
      Format.fprintf ppf "st%a [%a%+d], %a" pp_width w pp_base b d Reg.pp rs
  | LoadIdx (w, rd, rb, ri, s) ->
      Format.fprintf ppf "ldx%a %a, [%a+%a*%d]" pp_width w Reg.pp rd Reg.pp rb
        Reg.pp ri s
  | Lea (r, d) -> Format.fprintf ppf "lea %a, [pc%+d]" Reg.pp r d
  | AddSp n -> Format.fprintf ppf "addsp %d" n
  | Jmp d -> Format.fprintf ppf "jmp pc%+d" d
  | Jcc (c, d) -> Format.fprintf ppf "j%a pc%+d" pp_cond c d
  | Call d -> Format.fprintf ppf "call pc%+d" d
  | IndJmp r -> Format.fprintf ppf "jmp *%a" Reg.pp r
  | IndCall r -> Format.fprintf ppf "call *%a" Reg.pp r
  | IndCallMem (b, d) -> Format.fprintf ppf "call *[%a%+d]" pp_base b d
  | Ret -> Format.pp_print_string ppf "ret"
  | CallRt n -> Format.fprintf ppf "callrt #%d" n
  | Throw -> Format.pp_print_string ppf "throw"
  | Out r -> Format.fprintf ppf "out %a" Reg.pp r
  | Mflr r -> Format.fprintf ppf "mflr %a" Reg.pp r
  | Mtlr r -> Format.fprintf ppf "mtlr %a" Reg.pp r
  | Mttar r -> Format.fprintf ppf "mttar %a" Reg.pp r
  | Btar -> Format.pp_print_string ppf "btar"
  | Adrp (r, d) -> Format.fprintf ppf "adrp %a, pc%+d" Reg.pp r d
  | Addis (rd, rs, n) ->
      Format.fprintf ppf "addis %a, %a, %d" Reg.pp rd Reg.pp rs n

let to_string i = Format.asprintf "%a" pp i
let equal (a : t) b = a = b

let is_branch = function Jmp _ | Jcc _ -> true | _ -> false
let is_call = function Call _ | IndCall _ | IndCallMem _ | CallRt _ -> true | _ -> false
let is_indirect = function IndJmp _ | IndCall _ | IndCallMem _ | Btar -> true | _ -> false

let is_terminator = function
  | Jmp _ | Jcc _ | Call _ | IndJmp _ | IndCall _ | IndCallMem _ | Ret
  | CallRt _ | Halt | Throw | Trap | Illegal | Btar ->
      true
  | Nop | Mov _ | Movhi _ | Orlo _ | Movabs _ | Add _ | Sub _ | Mul _ | And_ _
  | Or_ _ | Xor _ | Shl _ | Shr _ | Cmp _ | Load _ | Store _ | LoadIdx _
  | Lea _ | AddSp _ | Out _ | Mflr _ | Mtlr _ | Mttar _ | Adrp _ | Addis _ ->
      false

let has_fallthrough = function
  | Jmp _ | IndJmp _ | Ret | Halt | Throw | Illegal | Btar -> false
  | Trap -> false
  | Jcc _ | Call _ | IndCall _ | IndCallMem _ | CallRt _ -> true
  | i -> not (is_terminator i)

let direct_target ~addr = function
  | Jmp d | Jcc (_, d) | Call d -> Some (addr + d)
  | _ -> None

let with_direct_target ~addr i target =
  match i with
  | Jmp _ -> Jmp (target - addr)
  | Jcc (c, _) -> Jcc (c, target - addr)
  | Call _ -> Call (target - addr)
  | _ -> invalid_arg "Insn.with_direct_target: not a direct branch/call"

(* Register sets as masks (see [Reg.bit]); [defs] and [uses] are read off
   them. *)
let operand_mask = function Reg r -> Reg.bit r | Imm _ -> 0
let base_mask = function BReg r -> Reg.bit r | BSp -> 0

let defs_mask = function
  | Mov (r, _) | Movhi (r, _) | Movabs (r, _) | Load (_, r, _, _)
  | LoadIdx (_, r, _, _, _) | Lea (r, _) | Mflr r | Adrp (r, _)
  | Addis (r, _, _) | Orlo (r, _) | Add (r, _) | Sub (r, _) | Mul (r, _)
  | And_ (r, _) | Or_ (r, _) | Xor (r, _) | Shl (r, _) | Shr (r, _) ->
      Reg.bit r
  | Call _ | IndCall _ | IndCallMem _ | CallRt _ ->
      (* calls may clobber every caller-saved register; callers of [defs]
         that care about calls should consult the calling convention, but
         for liveness it is safe to treat the return register as defined *)
      Reg.bit Reg.ret
  | Nop | Halt | Trap | Illegal | Cmp _ | Store _ | AddSp _ | Jmp _ | Jcc _
  | IndJmp _ | Ret | Throw | Out _ | Mtlr _ | Mttar _ | Btar ->
      0

let uses_mask = function
  | Mov (_, o) -> operand_mask o
  | Movhi _ | Movabs _ | Mflr _ | Adrp _ -> 0
  | Orlo (r, _) | Shl (r, _) | Shr (r, _) -> Reg.bit r
  | Add (r, o) | Sub (r, o) | Mul (r, o) | And_ (r, o) | Or_ (r, o)
  | Xor (r, o) | Cmp (r, o) ->
      Reg.bit r lor operand_mask o
  | Load (_, _, b, _) -> base_mask b
  | LoadIdx (_, _, rb, ri, _) -> Reg.bit rb lor Reg.bit ri
  | Store (_, b, _, rs) -> Reg.bit rs lor base_mask b
  | Lea _ | AddSp _ | Jmp _ | Jcc _ | Call _ | CallRt _ -> 0
  | IndJmp r | IndCall r -> Reg.bit r
  | IndCallMem (b, _) -> base_mask b
  | Ret | Halt | Trap | Illegal | Nop | Btar -> 0
  | Throw -> Reg.bit Reg.r0
  | Out r | Mtlr r | Mttar r -> Reg.bit r
  | Addis (_, rs, _) -> Reg.bit rs

let defs i = Reg.set_of_mask (defs_mask i)
let uses i = Reg.set_of_mask (uses_mask i)
