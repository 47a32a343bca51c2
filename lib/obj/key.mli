(** Canonical bytes of plain data, for content digests and slot keys: the
    pinned layout's segment digests ([Icfg_codegen.Asm.layout_pinned]) and
    the layout slot's name ([Icfg_core.Rewriter]). *)

val dval : 'a -> string
(** Canonical bytes of a structural value ([Marshal] with [No_sharing],
    so structurally equal values digest equally regardless of sharing
    history). Only for plain data — no closures, no custom blocks, no
    cycles. *)
