type perm = { read : bool; write : bool; execute : bool }

let r_x = { read = true; write = false; execute = true }
let r_only = { read = true; write = false; execute = false }
let r_w = { read = true; write = true; execute = false }

type t = {
  name : string;
  vaddr : int;
  data : Bytes.t;
  size : int;
  perm : perm;
  loaded : bool;
}

let make ?(loaded = true) ?size ~name ~vaddr ~perm data =
  if vaddr < 0 then invalid_arg "Section.make: negative vaddr";
  let size = Option.value size ~default:(Bytes.length data) in
  if size < Bytes.length data then
    invalid_arg "Section.make: size below the stored bytes";
  { name; vaddr; data; size; perm; loaded }

let size s = s.size
let end_vaddr s = s.vaddr + s.size
let contains s a = a >= s.vaddr && a < end_vaddr s
let rename s name = { s with name }

let pp ppf s =
  Format.fprintf ppf "%-12s 0x%08x..0x%08x %c%c%c%s" s.name s.vaddr
    (end_vaddr s)
    (if s.perm.read then 'r' else '-')
    (if s.perm.write then 'w' else '-')
    (if s.perm.execute then 'x' else '-')
    (if s.loaded then "" else " (unloaded)")
