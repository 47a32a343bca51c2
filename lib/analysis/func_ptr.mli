(** Function-pointer analysis (section 5.2).

    Discovers the {e definitions} of function pointers — the rewriter never
    needs to know where an indirect call goes, only where pointers are
    created:

    - data slots carrying run-time relocations whose value is a function
      entry (PIE);
    - data words in writable data whose value matches a function entry
      (position-dependent code; inherently heuristic — a forged integer that
      happens to equal an entry address will be mis-identified, which is why
      the paper requires precision for safety);
    - address materializations in code ([movabs]/[lea]/[addis+addi]/
      [adrp+add] sequences);
    - values loaded from known pointer slots, adjusted by arithmetic and
      stored elsewhere — forward slicing that captures Go's
      [&runtime.goexit + 1] idiom (Listing 1 of the paper). *)

type site =
  | Fp_slot of { slot : int; target : int; via_reloc : bool }
      (** an 8-byte data word at [slot] holding [target] *)
  | Fp_mater of { prov : int list; target : int }
      (** code materialization; [prov] are the instruction addresses to
          patch *)
  | Fp_adjusted of { src_slot : int; target : int; adjust : int }
      (** the pointer loaded from [src_slot] flows through [+adjust] before
          being stored/used: the rewriter must compensate the slot so the
          adjusted value lands on the relocated block of [target + adjust] *)

val analyze :
  Icfg_obj.Binary.t -> Failure_model.t -> Cfg.t list -> site list
(** Two-phase analysis: a data-slot pass (relocation- and value-match
    slots, which also builds the slot-target map the forward slicer
    reads) followed by a code scan of each CFG, in CFG order. It is
    [sites p (List.map (scan p) cfgs)] with [p = data_pass bin fm]. *)

(** {1 The analysis in steps}

    A caller that scans the same CFG twice, as {!Parse} does across its
    two passes, keeps the data-slot pass and each CFG's scan instead of
    redoing them. Both are pure: the pass depends only on the binary and
    the failure model, and a scan only on the pass and the CFG's blocks.
    So [sites] over kept scans, in CFG order, equals {!analyze} over the
    same CFGs, site for site and in the same order. *)

type data_pass
(** The function-entry set, the relocation and value-match slots and the
    slot-target map of one binary. *)

val data_pass : Icfg_obj.Binary.t -> Failure_model.t -> data_pass

val scan : data_pass -> Cfg.t -> site list
(** The code scan of one CFG's blocks, in block order, not
    deduplicated. *)

val sites : data_pass -> site list list -> site list
(** The data slots followed by the given scans, deduplicated. *)

val dedup : site list -> site list
(** Keep the first occurrence of each distinct site: materializations are
    keyed by their full sorted provenance list plus target, slots by
    address, adjusted uses by (slot, adjust). Exposed for the dedup
    regression battery; {!analyze} already returns deduplicated sites. *)

val derived_block_targets : site list -> int list
(** Addresses that unrewritten or adjusted pointers may transfer control to
    (entry-adjusted targets); the rewriter adds them as block leaders and
    control-flow-landing candidates in every mode. *)

val pp_site : Format.formatter -> site -> unit
