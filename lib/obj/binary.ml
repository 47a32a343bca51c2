type lang = C | Cpp | Fortran | Rust | Go

let lang_name = function
  | C -> "C"
  | Cpp -> "C++"
  | Fortran -> "Fortran"
  | Rust -> "Rust"
  | Go -> "Go"

type features = {
  langs : lang list;
  cpp_exceptions : bool;
  go_runtime : bool;
  go_vtab : bool;
  rust_metadata : bool;
  symbol_versioning : bool;
}

let no_features =
  {
    langs = [ C ];
    cpp_exceptions = false;
    go_runtime = false;
    go_vtab = false;
    rust_metadata = false;
    symbol_versioning = false;
  }

type t = {
  name : string;
  arch : Icfg_isa.Arch.t;
  pie : bool;
  entry : int;
  sections : Section.t list;
  symbols : Symbol.t list;
  relocs : Reloc.t list;
  link_relocs : Reloc.t list;
  eh_frame : Ehframe.t;
  toc_base : int;
  dynsyms : string array;
  features : features;
}

let check_no_overlap sections =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if Section.end_vaddr a > b.Section.vaddr then
          invalid_arg
            (Printf.sprintf "Binary.make: sections %s and %s overlap"
               a.Section.name b.Section.name);
        go rest
    | _ -> ()
  in
  go sections

let sort_sections sections =
  List.sort (fun a b -> compare a.Section.vaddr b.Section.vaddr) sections

let make ?(pie = false) ?(relocs = []) ?(link_relocs = [])
    ?(eh_frame = Ehframe.empty) ?(toc_base = 0) ?(dynsyms = [||])
    ?(features = no_features) ~name ~arch ~entry ~symbols sections =
  let sections = sort_sections sections in
  check_no_overlap sections;
  let symbols = List.sort Symbol.compare_by_addr symbols in
  {
    name;
    arch;
    pie;
    entry;
    sections;
    symbols;
    relocs;
    link_relocs;
    eh_frame;
    toc_base;
    dynsyms;
    features;
  }

let section t name = List.find_opt (fun s -> s.Section.name = name) t.sections

let section_exn t name =
  match section t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Binary: no section %s in %s" name t.name)

let section_at t addr = List.find_opt (fun s -> Section.contains s addr) t.sections
let text t = match section t ".text" with Some s -> s | None -> raise Not_found
let func_symbols t = List.filter Symbol.is_func t.symbols
let symbol t name = List.find_opt (fun (s : Symbol.t) -> s.name = name) t.symbols

let symbol_at t addr =
  List.find_opt (fun s -> Symbol.is_func s && Symbol.contains s addr) t.symbols

let with_sections t sections =
  let sections = sort_sections sections in
  check_no_overlap sections;
  { t with sections }

let add_section t s = with_sections t (s :: t.sections)

let map_section t name f =
  let found = ref false in
  let sections =
    List.map
      (fun s ->
        if s.Section.name = name then (
          found := true;
          f s)
        else s)
      t.sections
  in
  if not !found then
    invalid_arg (Printf.sprintf "Binary.map_section: no section %s" name);
  with_sections t sections

let locate t addr n =
  match section_at t addr with
  | Some s when addr + n <= Section.end_vaddr s -> (s, addr - s.Section.vaddr)
  | _ ->
      invalid_arg
        (Printf.sprintf "Binary %s: address 0x%x (+%d) is not mapped" t.name
           addr n)

let sign_extend v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* The [n] bytes of [b] from [off], zero past its end: how an access that
   reaches into a section's tail sees its bytes. *)
let padded b off n =
  let w = Bytes.make n '\000' in
  if off < Bytes.length b then Bytes.blit b off w 0 (Int.min n (Bytes.length b - off));
  w

let[@inline] read_with get t addr n =
  let s, off = locate t addr n in
  let b = s.Section.data in
  if off + n <= Bytes.length b then get b off else get (padded b off n) 0

let read8 t addr = sign_extend (read_with Bytes.get_uint8 t addr 1) 8
let read16 t addr = sign_extend (read_with Bytes.get_uint16_le t addr 2) 16
let read32 t addr = Int32.to_int (read_with Bytes.get_int32_le t addr 4)
let read64 t addr = Int64.to_int (read_with Bytes.get_int64_le t addr 8)

let read t addr (w : Icfg_isa.Insn.width) =
  match w with
  | W8 -> read8 t addr
  | W16 -> read16 t addr
  | W32 -> read32 t addr
  | W64 -> read64 t addr

let patch t writes =
  let located =
    List.map (fun (addr, b) -> (locate t addr (String.length b), b)) writes
  in
  let write_section (s : Section.t) =
    match List.filter (fun ((x, _), _) -> x == s) located with
    | [] -> s
    | mine ->
        (* One copy of the stored prefix, grown only as far as a write
           reaches into the tail. *)
        let stored = Bytes.length s.Section.data in
        let reach =
          List.fold_left
            (fun n ((_, off), b) -> max n (off + String.length b))
            stored mine
        in
        let data = Bytes.extend s.Section.data 0 (reach - stored) in
        Bytes.fill data stored (reach - stored) '\000';
        List.iter
          (fun ((_, off), b) -> Bytes.blit_string b 0 data off (String.length b))
          mine;
        { s with Section.data }
  in
  { t with sections = List.map write_section t.sections }

let loaded_size t =
  List.fold_left
    (fun acc s -> if s.Section.loaded then acc + Section.size s else acc)
    0 t.sections

let code_end t =
  List.fold_left
    (fun acc s -> if s.Section.loaded then max acc (Section.end_vaddr s) else acc)
    0 t.sections

(* Decode at [addr] inside the executable section [s]. *)
let decode_in t (s : Section.t) addr =
  let b = s.Section.data and pos = addr - s.Section.vaddr in
  if Bytes.length b = Section.size s then Icfg_isa.Encode.decode_bytes t.arch b ~pos
  else
    (* Near or in a tail, decode a zero-padded window. *)
    let n = Int.min (Icfg_isa.Encode.max_insn_len t.arch) (Section.size s - pos) in
    Icfg_isa.Encode.decode_bytes t.arch (padded b pos n) ~pos:0

let decode_at t addr =
  match section_at t addr with
  | Some s when s.Section.perm.execute -> decode_in t s addr
  | Some s ->
      invalid_arg
        (Printf.sprintf "Binary.decode_at: 0x%x is in non-executable %s" addr
           s.Section.name)
  | None -> invalid_arg (Printf.sprintf "Binary.decode_at: 0x%x unmapped" addr)

let decoder t addr =
  match section_at t addr with
  | Some s when s.Section.perm.execute ->
      let lo = s.Section.vaddr and hi = Section.end_vaddr s in
      fun a -> if a >= lo && a < hi then decode_in t s a else decode_at t a
  | _ -> decode_at t

let pp ppf t =
  Format.fprintf ppf "%s (%a%s) entry=0x%x@." t.name Icfg_isa.Arch.pp t.arch
    (if t.pie then ", PIE" else ", no-pie")
    t.entry;
  List.iter (fun s -> Format.fprintf ppf "  %a@." Section.pp s) t.sections;
  Format.fprintf ppf "  %d symbols, %d runtime relocs, %d link relocs@."
    (List.length t.symbols) (List.length t.relocs)
    (List.length t.link_relocs)
