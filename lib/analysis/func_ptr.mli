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
    reads) followed by a code scan of each CFG, in CFG order. *)

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
