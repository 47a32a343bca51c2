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
  fa_cfg : Cfg.t;  (** final CFG (jump-table edges and pointer targets added) *)
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
          targets, Listing 1) *)
}

type runner = {
  map :
    'a 'b.
    stage:string -> key:('a -> string) -> ('a -> 'b) -> 'a list -> 'b list;
  span : 'a. string -> (unit -> 'a) -> 'a;
  count : string -> int -> unit;
}
(** How the pipeline's per-item stages run, injected by the caller
    (parallelism, the content-addressed cache and tracing all live in the
    core library, above this one — see [Icfg_core.Cache.runner]).

    [map ~stage ~key f xs] must be observably [List.map f xs]: results in
    input order, whatever the schedule. [key x] digests every input
    [f x] reads, so a memoizing runner may serve a stored result for an
    equal key under the same [stage] tag; a runner that does not memoize
    never calls [key]. [span name f] times [f] as a nested span and
    [count name n] bumps a named counter; both are observation-only —
    [parse] output never depends on the runner. *)

val parse : ?fm:Failure_model.t -> ?runner:runner -> Icfg_obj.Binary.t -> t
(** Whole-binary parse. The default runner runs everything inline and
    records nothing. [runner.map] carries the two per-function passes
    (initial CFG + jump-table slicing, then finalization + liveness) and
    the per-CFG function-pointer scans ({!Func_ptr.analyze}); only the
    cross-function steps (known-data collection, the data-slot pass) stay
    serial. Spans: [pass1], [known-data], [func-ptr], [finalize] and
    [func-ptr-2] under [parse]; whole-binary counters: [parse/funcs],
    [parse/instrumentable], [parse/jump-tables], ...

    Stage tags: [parse/pass1], [parse/fptr], [parse/finalize],
    [parse/fptr2]. The whole-binary context is digested per section kind
    and compared piecewise: every stage key carries the common digest
    (ABI facts, failure model, nameless symbol map, section metadata,
    pre-function text bytes) plus the eh_frame digest; no key digests
    data bytes. [parse/finalize] — the one stage that dereferences data
    words — adds the round-1 results and exactly the jump-table words it
    reads ({!Jump_table.table_words}), so a data edit misses only the
    functions whose tables read an edited word, and a one-symbol rename
    costs exactly that function's entries. Per-function stages additionally key
    on the function's symbol and content slice (extended to the next
    function start so padding is owned); the per-CFG pointer scans key on
    the scanned CFG's content plus the scan-input digest computed inside
    {!Func_ptr.analyze}. Keys are built lazily, so with a runner that
    never calls [key] the key machinery is never even forced. *)

val func : t -> string -> func_analysis option
val func_at : t -> int -> func_analysis option
val instrumentable_count : t -> int
val total_funcs : t -> int
val coverage : t -> float
(** Fraction of functions that are instrumentable (the paper's
    instrumentation-coverage metric). *)

val pp_summary : Format.formatter -> t -> unit
