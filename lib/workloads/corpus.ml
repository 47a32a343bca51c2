module Binary = Icfg_obj.Binary
module Arch = Icfg_isa.Arch

type shape =
  | Plain
  | Huge_jt
  | Dense_fptr
  | Starved
  | Cpp_exc
  | Go_vtab
  | Data_table

let all_shapes =
  [| Plain; Huge_jt; Dense_fptr; Starved; Cpp_exc; Go_vtab; Data_table |]

let shape_name = function
  | Plain -> "plain"
  | Huge_jt -> "huge-jt"
  | Dense_fptr -> "dense-fptr"
  | Starved -> "starved"
  | Cpp_exc -> "cpp-exc"
  | Go_vtab -> "go-vtab"
  | Data_table -> "data-table"

type entry = {
  e_id : int;
  e_shape : shape;
  e_arch : Arch.t;
  e_pie : bool;
  e_bulk : int;
  e_go : bool;
  e_rust : bool;
  e_symver : bool;
  e_spec : Gen.spec;
  e_twin_of : int option;
}

let arches = [ Arch.X86_64; Arch.Aarch64; Arch.Ppc64le ]

(* Beyond the 32 MiB ppc64le short-branch range: the relocated code area
   lands out of reach of every scratch chunk, so an SRBI-era rewrite needs
   trap trampolines on most blocks (the 602.gcc failure). *)
let starved_bulk = 34 * 1024 * 1024

(* One fresh entry. All draws come from the single corpus stream, in a
   fixed order per shape, so the whole corpus is a pure function of the
   corpus seed. *)
let fresh rng id =
  let shape = all_shapes.(id mod Array.length all_shapes) in
  let name = Printf.sprintf "c%04d-%s" id (shape_name shape) in
  let seed = Rng.int rng 1_000_000_000 in
  let base =
    {
      Gen.default_spec with
      Gen.seed;
      name;
      inner = 2;
      iters = Rng.range rng 6 18;
      work = Rng.range rng 8 24;
      n_compute = Rng.range rng 4 7;
      n_hard_spill = 0;
      n_frameless_tail = 0;
      n_data_table = 0;
    }
  in
  let arch = Rng.pick rng arches in
  let pie = Rng.bool rng in
  let entry ?(arch = arch) ?(pie = pie) ?(bulk = 0) ?(go = false)
      ?(rust = false) ?(symver = false) spec =
    {
      e_id = id;
      e_shape = shape;
      e_arch = arch;
      e_pie = pie;
      e_bulk = bulk;
      e_go = go;
      e_rust = rust;
      e_symver = symver;
      e_spec = spec;
      e_twin_of = None;
    }
  in
  match shape with
  | Plain ->
      let spec =
        {
          base with
          Gen.n_switch = Rng.range rng 1 2;
          n_dispatch = Rng.range rng 1 2;
          n_hard_spill = Rng.int rng 2;
          n_frameless_tail = Rng.int rng 2;
        }
      in
      entry ~rust:(Rng.chance rng 0.15) ~symver:(Rng.chance rng 0.15) spec
  | Huge_jt ->
      (* Jump tables far larger than the suite's: the resolved-target sets
         and bound guards get big, and every mode that clones tables pays. *)
      entry
        {
          base with
          Gen.cases = Rng.pick rng [ 32; 64; 128 ];
          n_switch = Rng.range rng 3 5;
          n_dispatch = 1;
          iters = Rng.range rng 6 10;
        }
  | Dense_fptr ->
      (* A dense function-pointer graph: many tables over many targets
         stresses the slot/materialization scans and func-ptr mode. *)
      entry
        ~rust:(Rng.chance rng 0.15)
        {
          base with
          Gen.n_compute = Rng.range rng 8 12;
          n_dispatch = Rng.range rng 4 8;
          n_switch = Rng.int rng 2;
          iters = Rng.range rng 6 10;
        }
  | Starved ->
      (* Scratch-space starvation (always ppc64le, always huge): bulk data
         pushes .instr past the short-branch range. *)
      entry ~arch:Arch.Ppc64le ~bulk:starved_bulk
        {
          base with
          Gen.n_switch = Rng.range rng 3 4;
          n_dispatch = 2;
          n_hard_spill = 1;
          n_frameless_tail = 1;
          iters = Rng.range rng 6 10;
        }
  | Cpp_exc ->
      entry
        {
          base with
          Gen.langs = [ Binary.Cpp ];
          exceptions = true;
          n_switch = Rng.range rng 1 2;
          n_dispatch = Rng.range rng 1 2;
          iters = Rng.range rng 6 10;
        }
  | Go_vtab ->
      (* Go vtab-check binaries are always PIE (matching the docker
         analogue); func-ptr mode must not pass on these. *)
      entry ~pie:true ~go:true
        {
          base with
          Gen.langs = [ Binary.Go ];
          n_switch = 0;
          n_dispatch = 2;
          iters = Rng.range rng 8 16;
        }
  | Data_table ->
      (* Writable-table dispatch is genuinely unresolvable: ours degrades
         gracefully, all-or-nothing regeneration refuses. *)
      entry
        {
          base with
          Gen.n_data_table = Rng.range rng 1 2;
          n_switch = Rng.range rng 1 2;
          n_dispatch = 1;
          iters = Rng.range rng 6 10;
        }

let generate ~seed ~count =
  if count < 0 then invalid_arg "Corpus.generate: negative count";
  let rng = Rng.create seed in
  let prev = Array.make (max count 1) None in
  List.init count (fun id ->
      let e =
        (* Every sixth entry past the first shape cycle duplicates an
           earlier entry byte-for-byte (same spec, same name): a replay
           the daemon's whole-response memo answers without rerunning
           the pipeline. A fresh entry's draws are consumed either way so
           twin placement never shifts later entries' contents. *)
        let f = fresh rng id in
        if id >= Array.length all_shapes && id mod 6 = 3 then
          let src = Rng.int rng id in
          match prev.(src) with
          | Some s -> { s with e_id = id; e_twin_of = Some src }
          | None -> f
        else f
      in
      prev.(id) <- Some e;
      e)

let build e =
  let prog =
    if e.e_go then Gen.build_go e.e_spec else Gen.build e.e_spec
  in
  let bin, _ =
    Icfg_codegen.Compile.compile ~pie:e.e_pie ~bulk_data:e.e_bulk e.e_arch
      prog
  in
  let f = bin.Binary.features in
  {
    bin with
    Binary.features =
      {
        f with
        Binary.rust_metadata = f.Binary.rust_metadata || e.e_rust;
        symbol_versioning = f.Binary.symbol_versioning || e.e_symver;
      };
  }

let digest bin =
  Digest.to_hex (Digest.string (Marshal.to_string bin [ Marshal.No_sharing ]))
