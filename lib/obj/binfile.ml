let magic = "ICFG2"

(* The most bytes the sections of one container may declare, tails
   included: the bound a serve upload already has on its frame, so no
   small container can declare an image the Vm would later materialise. *)
let max_image = 256 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let w8 b v = Buffer.add_uint8 b (v land 0xff)

let w64 b v =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int v);
  Buffer.add_bytes b t

let wstr b s =
  w64 b (String.length s);
  Buffer.add_string b s

let wbool b v = w8 b (if v then 1 else 0)
let wopt b f = function None -> w8 b 0 | Some v -> w8 b 1; f v
let wlist b f l =
  w64 b (List.length l);
  List.iter f l

let arch_tag : Icfg_isa.Arch.t -> int = function
  | X86_64 -> 0
  | Ppc64le -> 1
  | Aarch64 -> 2

let arch_of_tag = function
  | 0 -> Icfg_isa.Arch.X86_64
  | 1 -> Icfg_isa.Arch.Ppc64le
  | 2 -> Icfg_isa.Arch.Aarch64
  | n -> invalid_arg (Printf.sprintf "Binfile: bad architecture tag %d" n)

let lang_tag : Binary.lang -> int = function
  | C -> 0
  | Cpp -> 1
  | Fortran -> 2
  | Rust -> 3
  | Go -> 4

let lang_of_tag = function
  | 0 -> Binary.C
  | 1 -> Binary.Cpp
  | 2 -> Binary.Fortran
  | 3 -> Binary.Rust
  | 4 -> Binary.Go
  | n -> invalid_arg (Printf.sprintf "Binfile: bad language tag %d" n)

(* The metadata goes into a small buffer; each section's stored bytes are
   recorded as a splice point (the metadata length when they are due) and
   blitted in place once, so the exact-size result is the only image-sized
   allocation. A section is written as its declared size followed by its
   length-prefixed stored bytes: a zero tail costs nothing to encode. *)
let to_bytes (bin : Binary.t) =
  let b = Buffer.create 4096 in
  let splices = ref [] in
  Buffer.add_string b magic;
  wstr b bin.Binary.name;
  w8 b (arch_tag bin.Binary.arch);
  wbool b bin.Binary.pie;
  w64 b bin.Binary.entry;
  w64 b bin.Binary.toc_base;
  (* features *)
  let f = bin.Binary.features in
  wlist b (fun l -> w8 b (lang_tag l)) f.Binary.langs;
  wbool b f.Binary.cpp_exceptions;
  wbool b f.Binary.go_runtime;
  wbool b f.Binary.go_vtab;
  wbool b f.Binary.rust_metadata;
  wbool b f.Binary.symbol_versioning;
  (* dynsyms *)
  w64 b (Array.length bin.Binary.dynsyms);
  Array.iter (wstr b) bin.Binary.dynsyms;
  (* sections *)
  wlist b
    (fun (s : Section.t) ->
      wstr b s.Section.name;
      w64 b s.Section.vaddr;
      w8 b
        ((if s.Section.perm.Section.read then 1 else 0)
        lor (if s.Section.perm.Section.write then 2 else 0)
        lor if s.Section.perm.Section.execute then 4 else 0);
      wbool b s.Section.loaded;
      w64 b (Section.size s);
      w64 b (Bytes.length s.Section.data);
      splices := (Buffer.length b, s.Section.data) :: !splices)
    bin.Binary.sections;
  (* symbols *)
  wlist b
    (fun (s : Symbol.t) ->
      wstr b s.Symbol.name;
      w64 b s.Symbol.addr;
      w64 b s.Symbol.size;
      w8 b (match s.Symbol.kind with Symbol.Func -> 0 | Symbol.Object -> 1 | Symbol.Dynamic -> 2);
      wbool b s.Symbol.global;
      wopt b (wstr b) s.Symbol.version)
    bin.Binary.symbols;
  (* relocations *)
  let wreloc (r : Reloc.t) =
    w64 b r.Reloc.offset;
    (match r.Reloc.kind with
    | Reloc.R_relative -> w8 b 0
    | Reloc.R_link sym ->
        w8 b 1;
        wstr b sym);
    w64 b r.Reloc.addend
  in
  wlist b wreloc bin.Binary.relocs;
  wlist b wreloc bin.Binary.link_relocs;
  (* eh_frame *)
  wlist b
    (fun (f : Ehframe.fde) ->
      w64 b f.Ehframe.func_start;
      w64 b f.Ehframe.func_end;
      w64 b f.Ehframe.frame_size;
      (match f.Ehframe.ra_loc with
      | Ehframe.Ra_on_stack off ->
          w8 b 0;
          w64 b off
      | Ehframe.Ra_in_lr -> w8 b 1);
      wlist b
        (fun (lo, hi, h) ->
          w64 b lo;
          w64 b hi;
          w64 b h)
        f.Ehframe.landing_pads)
    (Ehframe.fdes bin.Binary.eh_frame);
  let meta = Buffer.length b in
  let out =
    Bytes.create
      (List.fold_left (fun n (_, d) -> n + Bytes.length d) meta !splices)
  in
  let from, dst =
    List.fold_left
      (fun (from, dst) (at, data) ->
        Buffer.blit b from out dst (at - from);
        let dst = dst + (at - from) in
        Bytes.blit data 0 out dst (Bytes.length data);
        (at, dst + Bytes.length data))
      (0, 0) (List.rev !splices)
  in
  Buffer.blit b from out dst (meta - from);
  out

(* [to_bytes] never touches its result again, so the string can take it
   over without a copy. *)
let to_string bin = Bytes.unsafe_to_string (to_bytes bin)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = { buf : Bytes.t; mutable pos : int }

let need r n =
  if r.pos + n > Bytes.length r.buf then
    invalid_arg "Binfile: truncated input"

let r8 r =
  need r 1;
  let v = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  v

let r64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

(* A length-prefixed byte run, taken out of the buffer with one copy. *)
let rsub sub r =
  let n = r64 r in
  if n < 0 || n > Bytes.length r.buf then invalid_arg "Binfile: bad string";
  need r n;
  let s = sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let rstr r = rsub Bytes.sub_string r

let rbool r = r8 r <> 0
let ropt r f = if r8 r = 0 then None else Some (f ())

let rlist r f =
  let n = r64 r in
  if n < 0 then invalid_arg "Binfile: bad list length";
  List.init n (fun _ -> f ())

let of_bytes buf =
  let r = { buf; pos = 0 } in
  need r (String.length magic);
  let m = Bytes.sub_string buf 0 (String.length magic) in
  if m <> magic then invalid_arg "Binfile: bad magic";
  r.pos <- String.length magic;
  let name = rstr r in
  let arch = arch_of_tag (r8 r) in
  let pie = rbool r in
  let entry = r64 r in
  let toc_base = r64 r in
  let langs = rlist r (fun () -> lang_of_tag (r8 r)) in
  let cpp_exceptions = rbool r in
  let go_runtime = rbool r in
  let go_vtab = rbool r in
  let rust_metadata = rbool r in
  let symbol_versioning = rbool r in
  let features =
    {
      Binary.langs;
      cpp_exceptions;
      go_runtime;
      go_vtab;
      rust_metadata;
      symbol_versioning;
    }
  in
  let ndyn = r64 r in
  (* A static seed: [Array.init] would seed the array with the first
     (young) name, and the runtime empties the minor heap before it
     builds an array of more than 256 elements from a young seed. *)
  let dynsyms = Array.make ndyn "" in
  for i = 0 to ndyn - 1 do
    dynsyms.(i) <- rstr r
  done;
  let declared = ref 0 in
  let sections =
    rlist r (fun () ->
        let name = rstr r in
        let vaddr = r64 r in
        let p = r8 r in
        let perm =
          {
            Section.read = p land 1 <> 0;
            write = p land 2 <> 0;
            execute = p land 4 <> 0;
          }
        in
        let loaded = rbool r in
        let size = r64 r in
        if size < 0 then invalid_arg "Binfile: negative section size";
        if size > max_image - !declared then
          invalid_arg "Binfile: sections declare more than 256 MiB";
        declared := !declared + size;
        let data = rsub Bytes.sub r in
        if Bytes.length data > size then
          invalid_arg "Binfile: stored bytes exceed the section size";
        Section.make ~loaded ~size ~name ~vaddr ~perm data)
  in
  let symbols =
    rlist r (fun () ->
        let name = rstr r in
        let addr = r64 r in
        let size = r64 r in
        let kind =
          match r8 r with
          | 0 -> Symbol.Func
          | 1 -> Symbol.Object
          | 2 -> Symbol.Dynamic
          | n -> invalid_arg (Printf.sprintf "Binfile: bad symbol kind %d" n)
        in
        let global = rbool r in
        let version = ropt r (fun () -> rstr r) in
        { Symbol.name; addr; size; kind; global; version })
  in
  let rreloc () =
    let offset = r64 r in
    let kind =
      match r8 r with
      | 0 -> Reloc.R_relative
      | 1 -> Reloc.R_link (rstr r)
      | n -> invalid_arg (Printf.sprintf "Binfile: bad reloc kind %d" n)
    in
    let addend = r64 r in
    { Reloc.offset; kind; addend }
  in
  let relocs = rlist r rreloc in
  let link_relocs = rlist r rreloc in
  let fdes =
    rlist r (fun () ->
        let func_start = r64 r in
        let func_end = r64 r in
        let frame_size = r64 r in
        let ra_loc =
          match r8 r with
          | 0 -> Ehframe.Ra_on_stack (r64 r)
          | 1 -> Ehframe.Ra_in_lr
          | n -> invalid_arg (Printf.sprintf "Binfile: bad ra_loc %d" n)
        in
        let landing_pads =
          rlist r (fun () ->
              let lo = r64 r in
              let hi = r64 r in
              let h = r64 r in
              (lo, hi, h))
        in
        { Ehframe.func_start; func_end; frame_size; ra_loc; landing_pads })
  in
  Binary.make ~pie ~relocs ~link_relocs ~eh_frame:(Ehframe.of_fdes fdes)
    ~toc_base ~dynsyms ~features ~name ~arch ~entry ~symbols sections

(* Zero-copy decode from an immutable string: the reader above only ever
   reads ([need]/[Bytes.get*]/[Bytes.sub_string]), so viewing the string
   as bytes without copying is safe — and saves one whole-binary copy per
   request on the serve hot path. *)
let of_string s = of_bytes (Bytes.unsafe_of_string s)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save path bin =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes bin))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      of_bytes b)
