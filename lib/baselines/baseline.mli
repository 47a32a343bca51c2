(** Behaviourally-faithful baseline rewriters, built on the same substrate.

    Each baseline either produces a rewritten binary (sharing the
    {!Icfg_core.Rewriter.t} result type) or refuses with the failure the
    corresponding tool exhibits on that input. Every driver is a function
    of its arguments and the input binary alone: none carries a layout
    slot, so the same binary always gets the same outcome. *)

type outcome =
  | Rewritten of Icfg_core.Rewriter.t
  | Refused of string
      (** the tool rejects the binary up front (e.g. Egalito on non-PIE,
          Dyninst-10.2 call emulation on a non-x86 C++ binary) *)

(** {1 Dyninst-10.2 / SRBI} *)

val srbi :
  ?payload:Icfg_core.Rewriter.payload ->
  Icfg_obj.Binary.t ->
  outcome
(** Every-block trampolines, call emulation, SRBI-era analysis (no spill
    tracking, no layout tail-call heuristic), no superblocks or scratch
    pool. Refuses C++-exception binaries on ppc64le/aarch64 (call emulation
    was only implemented on x86-64) and refuses when its rewrite needed trap
    trampolines (the broken runtime-library signal delivery the paper
    reports for 602.gcc). On ppc64le it additionally carries a large
    conservatively-sized trap-mapping section, reproducing the Table 3 size
    blow-up. *)

(** {1 Egalito-style IR lowering} *)

val ir_lowering :
  ?payload:Icfg_core.Rewriter.payload ->
  Icfg_obj.Binary.t ->
  outcome
(** All-or-nothing binary regeneration: requires PIE with run-time
    relocations and complete analysis of every function; refuses binaries
    with C++ exceptions, Go runtimes, Rust metadata, or symbol versioning
    (the failures sections 8 and 9 report). On success the original code is
    dropped and the entry point moves into the regenerated code, so there
    are no trampoline bounces at all. *)

(** {1 E9Patch-style instruction patching} *)

val insn_patching :
  ?payload:Icfg_core.Rewriter.payload ->
  Icfg_obj.Binary.t ->
  outcome
(** No binary analysis is consumed: direct control flow keeps its original
    targets, every block bounces back into original code, and every block
    needs a trampoline — maximal reliability, maximal ping-pong. *)

(** {1 Multiverse-style dynamic translation} *)

val dynamic_translation :
  ?payload:Icfg_core.Rewriter.payload ->
  Icfg_obj.Binary.t ->
  outcome
(** Direct control flow is rewritten; every indirect transfer calls a
    runtime translation function; calls are emulated for unwinding. *)

(** {1 BOLT-like optimizer} *)

val bolt_function_reorder : Icfg_obj.Binary.t -> outcome
(** Requires link-time relocations: prints the paper's
    "BOLT-ERROR: function reordering only works when relocations are
    enabled" refusal otherwise (even for PIE, section 8.3). *)

val bolt_block_reorder : Icfg_obj.Binary.t -> outcome
(** Reorders blocks within functions. Reproduces the corruption the paper
    observed on 10 of 19 benchmarks: binaries containing memory-indirect
    calls come out corrupted (entry clobbered — the "bad .interp" analogue). *)

(** {1 This paper's system, for symmetric driving} *)

val ours :
  ?payload:Icfg_core.Rewriter.payload ->
  mode:Icfg_core.Mode.t ->
  Icfg_obj.Binary.t ->
  outcome

(** {1 The comparative-sweep roster} *)

val approaches : (string * (Icfg_obj.Binary.t -> outcome)) list
(** The corpus-matrix roster: the four comparable rewriting baselines
    ([srbi], [ir-lowering], [insn-patching], [dyn-translation]) plus this
    paper's system once per mode ([ours/dir], [ours/jt], [ours/func-ptr]).
    The BOLT entries are excluded: one is an optimizer that intentionally
    emits corrupt images on half the suite, not a comparable rewriter. *)

val refusal_key : string -> string
(** Stable axis/name histogram key for a {!Refused} message, aligned with
    {!Icfg_core.Attribution.key} naming: ["tramp/trap"],
    ["func/unresolved-indirect-jump"], ["feature/cpp-exceptions"],
    ["feature/non-pie"], ["feature/go-runtime"], ["feature/rust-metadata"],
    ["feature/symbol-versioning"], ["feature/link-relocs"], or
    ["feature/other"]. Keys are stable across wording tweaks in the tail of
    the message — the corpus matrix and its regression gate depend on
    them. *)

val legacy_dyninst :
  ?payload:Icfg_core.Rewriter.payload -> only:string list ->
  Icfg_obj.Binary.t -> outcome
(** Mainstream-Dyninst configuration for the Diogenes case study (section
    9): SRBI-style placement with the legacy far relocation area, partial
    instrumentation allowed, traps permitted (slow but functional). *)

val ours_partial :
  ?payload:Icfg_core.Rewriter.payload ->
  mode:Icfg_core.Mode.t ->
  only:string list ->
  Icfg_obj.Binary.t ->
  outcome
