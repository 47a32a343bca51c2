(** Whole-binary parsing: the driver that produces everything the rewriter
    consumes.

    Per function: a CFG built by traversal, jump-table analysis results,
    indirect-tail-call classification via the function-layout gap heuristic
    (section 5.1), instrumentability, and register liveness. Per binary:
    function-pointer sites and the pointer-derived block targets that every
    rewriting mode must treat as potential control-flow landing points. *)

type jt_site =
  | Js_resolved of Jump_table.bound_cause
      (** resolved table, graded by how its bound relates to the guard *)
  | Js_tail_call  (** unresolved jump accepted as an indirect tail call *)
  | Js_unresolved of Jump_table.unres * string
      (** unresolved: typed cause plus human-readable message *)

(** Per-indirect-jump analysis outcome, for coverage attribution. *)

type func_analysis = {
  fa_sym : Icfg_obj.Symbol.t;
  fa_cfg : Cfg.t;
      (** final CFG (jump-table edges and pointer targets added); pass 1's
          CFG itself when the function has neither *)
  fa_tables : Jump_table.table list;  (** resolved jump tables *)
  fa_tail_jumps : int list;  (** unresolved jumps classified as tail calls *)
  fa_jt_sites : (int * jt_site) list;
      (** outcome of every indirect jump, keyed by jump address *)
  fa_instrumentable : bool;
  fa_fail_reason : string option;
  fa_liveness : Liveness.t;
}

type t = {
  bin : Icfg_obj.Binary.t;
  fm : Failure_model.t;
  funcs : func_analysis list;
  fptrs : Func_ptr.site list;
  pointer_targets : int list;
      (** addresses that unrewritten pointers may reach (adjusted-entry
          targets, Listing 1), sorted: every target any pointer pass
          found. Each one inside a function starts a block of its
          [fa_cfg]. *)
}

val parse : ?fm:Failure_model.t -> Icfg_obj.Binary.t -> t
(** Whole-binary parse, computed in full on every call and recorded into
    the ambient {!Icfg_trace.Trace}: no state is kept between calls.
    Spans under [parse]:
    - [pass1]: each function's initial CFG and jump-table slices;
    - [known-data];
    - [func-ptr]: the data-slot pass and a pointer scan of each pass-1
      CFG;
    - [finalize]: table finalization, the final CFG and liveness per
      function. A function with no resolved table and no pointer target
      in its range keeps its pass-1 CFG, which a rebuild would only
      repeat ({!Cfg.build} is pure);
    - [func-ptr-2]: the pointer scan of the final CFGs. It rescans only
      the CFGs [finalize] rebuilt and keeps pass 1's scan of the others,
      and its data-slot pass. When it finds a target that no earlier
      pass did, the function holding it is finalized again with every
      target so far as leaders and rescanned, until no new target
      appears.

    Whole-binary counters: [parse/funcs], [parse/instrumentable],
    [parse/jump-tables], ... *)

val func : t -> string -> func_analysis option
val func_at : t -> int -> func_analysis option
val instrumentable_count : t -> int
val total_funcs : t -> int
val coverage : t -> float
(** Fraction of functions that are instrumentable (the paper's
    instrumentation-coverage metric). *)

val pp_summary : Format.formatter -> t -> unit
