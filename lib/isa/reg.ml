type t = int

let count = 16

let make i =
  if i < 0 || i >= count then
    invalid_arg (Printf.sprintf "Reg.make: %d out of range" i);
  i

let index r = r
let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b
let to_string r = Printf.sprintf "r%d" r
let pp ppf r = Format.pp_print_string ppf (to_string r)
let all = List.init count (fun i -> i)
let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15
let toc = r2
(* r2 is never an argument register: it is the ppc64le TOC base, and the
   calling convention is shared across the flavours. *)
let arg_regs = [ r0; r1; r3; r4 ]
let ret = r0
let callee_saved = [ r6; r7; r8; r9; r10; r11 ]

let caller_saved arch =
  let base = [ r0; r1; r3; r4; r5; r12; r13; r14; r15 ] in
  (* r2 is the TOC register on ppc64le and must never be clobbered. *)
  match arch with Arch.Ppc64le -> base | Arch.X86_64 | Arch.Aarch64 -> r2 :: base

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let bit r = 1 lsl r

let set_of_mask m =
  List.fold_left
    (fun s r -> if m land bit r <> 0 then Set.add r s else s)
    Set.empty all
