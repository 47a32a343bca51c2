(** A two-pass, label-based assembler with multi-section support.

    Items either have a fixed encoded length (every pseudo-instruction
    resolves to one concrete instruction whose length does not depend on the
    final displacement — the synthetic compilers always emit wide branch
    forms, like real compilers) or are data/alignment directives. {!layout}
    assigns addresses and records labels; {!encode} resolves references and
    produces bytes. Sections share one label namespace, so code can
    reference jump tables in [.rodata] and data can hold code addresses.

    Absolute 8-byte data words referring to labels become run-time
    relocations when encoding in PIE mode, mirroring how compilers emit
    [R_*_RELATIVE] entries for address-holding data. *)

type aexpr =
  | Const of int
  | Addr of string  (** absolute address of a label *)
  | Diff of string * string * int
      (** [Diff (a, b, scale)] = (addr a - addr b) / scale; position
          independent by construction (jump-table entries) *)
  | Diff_const of string * int * int
      (** [(addr a - base) / scale] against a fixed base address (cloned
          aarch64 jump-table entries keep the original code base) *)

type item =
  | Insn of Icfg_isa.Insn.t
  | Jmp_to of string
  | Jcc_to of Icfg_isa.Insn.cond * string
  | Call_to of string
  | Lea_of of Icfg_isa.Reg.t * string  (** PC-relative address of label *)
  | Adrp_of of Icfg_isa.Reg.t * string  (** aarch64 page-relative high part *)
  | Addlo_page of Icfg_isa.Reg.t * string  (** aarch64 low 12 bits *)
  | Addis_toc of Icfg_isa.Reg.t * string  (** ppc64le TOC-relative high part *)
  | Addlo_toc of Icfg_isa.Reg.t * string  (** ppc64le TOC-relative low part *)
  | Movabs_of of Icfg_isa.Reg.t * string  (** x86-64 absolute address *)
  | Movhi_of of Icfg_isa.Reg.t * string  (** RISC absolute high 16 bits *)
  | Orlo_of of Icfg_isa.Reg.t * string  (** RISC absolute low 16 bits *)
  | Jmp_abs of int  (** direct branch to a fixed (original) address *)
  | Jcc_abs of Icfg_isa.Insn.cond * int
  | Call_abs of int
  | Mater_const of Icfg_isa.Reg.t * int
      (** load a fixed absolute address position-independently (expands to
          the {!Icfg_isa.Mater} sequence for the target architecture) *)
  | Label of string
  | Align of int * [ `Nop | `Zero ]
  | Data of Icfg_isa.Insn.width * aexpr * [ `Reloc | `No_reloc ]
      (** emit a data word; [`Reloc] marks address-holding words that need a
          run-time relocation under PIE. Narrow widths are range-checked. *)
  | Raw of string  (** literal bytes (strings, filler constants) *)
  | Space of int  (** zero padding *)

exception Undefined_label of string

val item_size : Icfg_isa.Arch.t -> pie:bool -> at:int -> item -> int
(** Size the item occupies when placed at address [at] (only [Align] depends
    on the address; [Mater_const] depends on [pie]). *)

type layout = { items : (item * int) list; l_base : int; l_end : int }

val layout :
  Icfg_isa.Arch.t -> pie:bool -> labels:(string, int) Hashtbl.t -> base:int ->
  item list -> layout
(** First pass: assign addresses, adding label definitions to [labels].
    Duplicate labels raise [Invalid_argument]. *)

val encode :
  Icfg_isa.Arch.t ->
  pie:bool ->
  toc:int ->
  labels:(string, int) Hashtbl.t ->
  layout ->
  Bytes.t * Icfg_obj.Reloc.t list
(** Second pass. Raises {!Undefined_label} for unresolved names and
    {!Icfg_isa.Encode.Not_encodable} if a resolved displacement or a narrow
    data word overflows its field. *)

type chunk = { c_items : (item * int) list }
(** A contiguous run of placed items, each with its address. *)

val encode_chunks :
  Icfg_isa.Arch.t ->
  pie:bool ->
  toc:int ->
  labels:(string, int) Hashtbl.t ->
  layout ->
  chunk list ->
  Bytes.t * Icfg_obj.Reloc.t list
(** Encode an explicit chunk list (e.g. {!pinned_result.p_chunks})
    against a frozen label table into one buffer spanning
    [[lay.l_base, lay.l_end)]. The chunks need not tile the extent:
    uncovered holes (gaps a pinned layout left behind) stay zero-filled.
    Relocs concatenate in chunk (address) order; for chunks that tile the
    extent, bytes and relocs are exactly {!encode}'s. *)

(** {1 Pinned-address incremental layout}

    Zipr-style (arXiv 2312.00714) re-layout for warm rewrites: the caller
    splits the item stream into identified segments (one per function);
    segments whose content and recorded placement still fit are pinned at
    their previous addresses, and only the dirty segments are re-solved
    into the holes the pinned extents leave. A segment that keeps its
    address keeps every label it defines, so the rewritten code of an
    unchanged function keeps its address after an edit. *)

type seg_rec = {
  sr_id : int;  (** caller-chosen stable segment identity *)
  sr_digest : string;  (** content digest of the segment's items *)
  sr_start : int;
  sr_len : int;
}
(** One placed segment, as persisted between runs. *)

type pinned_result = {
  p_layout : layout;  (** placed items in address order *)
  p_recs : seg_rec list Lazy.t;
      (** records to persist for the next run; forcing it digests every
          segment, so a caller that persists nothing never pays for it *)
  p_chunks : chunk list;
      (** one chunk per nonzero-length segment, in address order — feed to
          {!encode_chunks} *)
  p_pinned : int;  (** nonzero-length segments kept at their prior address *)
  p_moved : int;  (** nonzero-length segments (re-)solved this run *)
}

val layout_pinned :
  Icfg_isa.Arch.t ->
  pie:bool ->
  labels:(string, int) Hashtbl.t ->
  base:int ->
  ?prev:seg_rec list ->
  (int * item list) list ->
  pinned_result
(** [layout_pinned arch ~pie ~labels ~base ?prev segs] places each
    [(id, items)] segment. A segment is pinned when [prev] holds a record
    with the same [sr_id] and content digest whose recorded extent starts
    at or above [base] and whose size, recomputed at that address, is
    unchanged; every other segment is placed first-fit (in emission
    order) into the address holes between pinned extents, falling back to
    the unbounded tail. Without [prev] (or with nothing pinnable) the
    result is address- and item-identical to {!layout} over the
    concatenated segment items. Duplicate labels raise
    [Invalid_argument], as in {!layout}. *)

type result = {
  data : Bytes.t;
  base : int;
  labels : (string, int) Hashtbl.t;
  relocs : Icfg_obj.Reloc.t list;
}

val assemble :
  Icfg_isa.Arch.t -> pie:bool -> toc:int -> base:int -> item list -> result
(** Single-section convenience wrapper over {!layout} + {!encode}. *)

val label_exn : (string, int) Hashtbl.t -> string -> int
