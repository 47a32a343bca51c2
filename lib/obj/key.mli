(** Content-key construction shared by every memoizable pipeline stage.

    Cache keys are built where a stage's inputs are known — in the
    analysis and codegen layers as well as in the core cache — so the two
    primitives live here, below all of them. *)

val dval : 'a -> string
(** Canonical bytes of a structural value ([Marshal] with [No_sharing],
    so structurally equal values digest equally regardless of sharing
    history). Only for plain data — no closures, no custom blocks, no
    cycles. *)

val kjoin : string list -> string
(** Length-prefixed concatenation: injective, so adjacent key parts can
    never alias each other. *)
