(** The synthetic compiler: lowers {!Ir} programs to {!Icfg_obj.Binary}
    binaries for any of the three architecture flavours.

    The lowering follows the per-architecture conventions the paper's
    analyses are built around:

    - {b Calling convention}: up to four arguments in [r0]..[r3], result in
      [r0]; locals in stack slots; x86-64 pushes the return address, the RISC
      flavours use the link register (saved to the frame in non-leaf
      functions, and left in [lr] in leaf functions).
    - {b Jump tables} (section 5.1): x86-64 uses 4-byte table-relative
      entries in [.rodata]; ppc64le embeds 8-byte absolute entries in
      [.text] directly after the indirect jump; aarch64 uses 1- or 2-byte
      entries in [.rodata], scaled by 4 and added to a code base, with
      jump tables separated by unrelated constant data.
    - {b Function pointers} (section 5.2): data-resident pointers get
      R_RELATIVE relocations under PIE and baked absolute values otherwise;
      code-resident pointers are materialized with [movabs] (x86-64
      position-dependent), RIP-relative [lea] (x86-64 PIE), TOC-relative
      [addis/addi] (ppc64le) or [adrp/add] (aarch64).
    - {b Unwinding}: every function gets an FDE; try/catch ranges become
      landing-pad triples; Go programs get a [.gopclntab] function table and
      real [runtime.findfunc]/[runtime.pcvalue] functions compiled from IR.

    Alongside the binary, the compiler returns ground-truth {!Debug}
    information for validating the analyses. *)

val compile :
  ?pie:bool ->
  ?bulk_data:int ->
  ?link_relocs:bool ->
  Icfg_isa.Arch.t ->
  Ir.program ->
  Icfg_obj.Binary.t * Debug.t
(** [compile arch prog] builds the binary. [bulk_data] adds a large zeroed
    data section [.bigdata] (SPEC-style working set; all of it a zero
    tail, see {!Icfg_obj.Section.t}), which pushes the rewriter's
    [.instr] section further away and stresses branch ranges on ppc64le.
    [link_relocs] retains link-time relocations (the [-Wl,-q] build BOLT
    requires for function reordering).
    Raises [Invalid_argument] on malformed IR and
    {!Icfg_isa.Encode.Not_encodable} if lowering produced an instruction
    whose field overflows (a generator bug). *)

val text_base : int
(** Link-time base address of [.text] (0x400000). *)

val go_walk_sym : string
(** Name of the runtime-library routine implementing the Go traceback
    walker ("icfg.go_walk"). *)

val data_label : string -> string
(** The assembler label of a global data object. *)
