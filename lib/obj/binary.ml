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
  | Some s when addr + n <= Section.end_vaddr s -> (s.Section.data, addr - s.Section.vaddr)
  | _ ->
      invalid_arg
        (Printf.sprintf "Binary %s: address 0x%x (+%d) is not mapped" t.name
           addr n)

let sign_extend v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let read8 t addr =
  let b, off = locate t addr 1 in
  sign_extend (Bytes.get_uint8 b off) 8

let read16 t addr =
  let b, off = locate t addr 2 in
  sign_extend (Bytes.get_uint16_le b off) 16

let read32 t addr =
  let b, off = locate t addr 4 in
  Int32.to_int (Bytes.get_int32_le b off)

let read64 t addr =
  let b, off = locate t addr 8 in
  Int64.to_int (Bytes.get_int64_le b off)

let read t addr (w : Icfg_isa.Insn.width) =
  match w with
  | W8 -> read8 t addr
  | W16 -> read16 t addr
  | W32 -> read32 t addr
  | W64 -> read64 t addr

let write8 t addr v =
  let b, off = locate t addr 1 in
  Bytes.set_uint8 b off (v land 0xff)

let write16 t addr v =
  let b, off = locate t addr 2 in
  Bytes.set_uint16_le b off (v land 0xffff)

let write32 t addr v =
  let b, off = locate t addr 4 in
  Bytes.set_int32_le b off (Int32.of_int v)

let write64 t addr v =
  let b, off = locate t addr 8 in
  Bytes.set_int64_le b off (Int64.of_int v)

let write t addr (w : Icfg_isa.Insn.width) v =
  match w with
  | W8 -> write8 t addr v
  | W16 -> write16 t addr v
  | W32 -> write32 t addr v
  | W64 -> write64 t addr v

let write_string t addr s =
  let b, off = locate t addr (String.length s) in
  Bytes.blit_string s 0 b off (String.length s)

let copy t =
  {
    t with
    sections =
      List.map
        (fun s -> { s with Section.data = Bytes.copy s.Section.data })
        t.sections;
  }

let patch t writes =
  let touched = List.filter_map (fun (addr, _) -> section_at t addr) writes in
  let out =
    {
      t with
      sections =
        List.map
          (fun s ->
            if List.memq s touched then
              { s with Section.data = Bytes.copy s.Section.data }
            else s)
          t.sections;
    }
  in
  List.iter (fun (addr, s) -> write_string out addr s) writes;
  out

let loaded_size t =
  List.fold_left
    (fun acc s -> if s.Section.loaded then acc + Section.size s else acc)
    0 t.sections

let code_end t =
  List.fold_left
    (fun acc s -> if s.Section.loaded then max acc (Section.end_vaddr s) else acc)
    0 t.sections

let decode_at t addr =
  match section_at t addr with
  | Some s when s.Section.perm.execute ->
      Icfg_isa.Encode.decode_bytes t.arch s.Section.data ~pos:(addr - s.Section.vaddr)
  | Some s ->
      invalid_arg
        (Printf.sprintf "Binary.decode_at: 0x%x is in non-executable %s" addr
           s.Section.name)
  | None -> invalid_arg (Printf.sprintf "Binary.decode_at: 0x%x unmapped" addr)

let pp ppf t =
  Format.fprintf ppf "%s (%a%s) entry=0x%x@." t.name Icfg_isa.Arch.pp t.arch
    (if t.pie then ", PIE" else ", no-pie")
    t.entry;
  List.iter (fun s -> Format.fprintf ppf "  %a@." Section.pp s) t.sections;
  Format.fprintf ppf "  %d symbols, %d runtime relocs, %d link relocs@."
    (List.length t.symbols) (List.length t.relocs)
    (List.length t.link_relocs)
