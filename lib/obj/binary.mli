(** The ELF-like binary container.

    A binary is a set of sections, symbols, relocations and unwinding
    metadata for one architecture. Binaries are produced by the synthetic
    compilers in [icfg_codegen], analysed by [icfg_analysis], transformed by
    the rewriters, and executed by the VM in [icfg_runtime]. *)

type lang = C | Cpp | Fortran | Rust | Go

val lang_name : lang -> string

(** Source-level features recorded by the synthetic compiler. These mirror
    the binary metadata that real tools trip over: Egalito-style IR lowering
    fails on C++ exceptions, Rust metadata, Go binaries and symbol
    versioning (sections 8 and 9 of the paper). *)
type features = {
  langs : lang list;
  cpp_exceptions : bool;
  go_runtime : bool;  (** Go-style native stack traceback / GC unwinding *)
  go_vtab : bool;  (** Go interface tables: function pointers the
                       func-ptr analysis cannot rewrite safely *)
  rust_metadata : bool;
  symbol_versioning : bool;
}

val no_features : features

type t = {
  name : string;
  arch : Icfg_isa.Arch.t;
  pie : bool;
  entry : int;
  sections : Section.t list;  (** sorted by virtual address *)
  symbols : Symbol.t list;  (** sorted by address *)
  relocs : Reloc.t list;  (** run-time relocations (.rela_dyn) *)
  link_relocs : Reloc.t list;  (** retained only under -Wl,-q-style builds *)
  eh_frame : Ehframe.t;
  toc_base : int;  (** ppc64le TOC base address (0 elsewhere) *)
  dynsyms : string array;  (** dynamic symbol names, indexed by [CallRt] *)
  features : features;
}

val make :
  ?pie:bool ->
  ?relocs:Reloc.t list ->
  ?link_relocs:Reloc.t list ->
  ?eh_frame:Ehframe.t ->
  ?toc_base:int ->
  ?dynsyms:string array ->
  ?features:features ->
  name:string ->
  arch:Icfg_isa.Arch.t ->
  entry:int ->
  symbols:Symbol.t list ->
  Section.t list ->
  t
(** Build a binary; sections and symbols are sorted, and overlapping
    sections are rejected with [Invalid_argument]. *)

(** {1 Section and symbol access} *)

val section : t -> string -> Section.t option
val section_exn : t -> string -> Section.t
val section_at : t -> int -> Section.t option
val text : t -> Section.t
(** The [.text] section. Raises [Not_found] if absent. *)

val func_symbols : t -> Symbol.t list
val symbol : t -> string -> Symbol.t option
val symbol_at : t -> int -> Symbol.t option
(** The function symbol whose range covers an address. *)

val with_sections : t -> Section.t list -> t
val add_section : t -> Section.t -> t
val map_section : t -> string -> (Section.t -> Section.t) -> t

(** {1 Byte access by virtual address} *)

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int
(** Sign-extended reads. Bytes in a section's zero tail read as 0. Raise
    [Invalid_argument] outside any section. *)

val read64 : t -> int -> int
val read : t -> int -> Icfg_isa.Insn.width -> int

val patch : t -> (int * string) list -> t
(** [patch t writes] is [t] with each [(addr, bytes)] written in list
    order: the only way to change a binary's bytes. Only the sections the
    writes land in are copied, each stored prefix extended only as far as
    a write reaches into its tail; every other section shares its buffer
    with [t], which is left unchanged. Raises [Invalid_argument] on a
    write that is not inside one section. *)

(** {1 Measures} *)

val loaded_size : t -> int
(** Total size of loaded sections — what binutils [size] reports; used for
    the paper's size-increase numbers. *)

val code_end : t -> int
(** End of the highest loaded section: where new sections may be placed. *)

val decode_at : t -> int -> Icfg_isa.Insn.t * int
(** Decode the instruction at a virtual address inside an executable
    section (a zero tail decodes as zero bytes). Raises
    [Invalid_argument] elsewhere. *)

val decoder : t -> int -> int -> Icfg_isa.Insn.t * int
(** [decoder t addr] is [decode_at t] with the section that holds [addr]
    looked up once: an address inside that section skips
    {!decode_at}'s search of the section list, and any other address
    goes through {!decode_at}, so the result (or exception) is the same
    at every address. One CFG build decodes through one decoder for its
    function's entry. *)

val pp : Format.formatter -> t -> unit
