(** Incremental CFG patching: the paper's binary rewriter.

    Pipeline (sections 3-7):

    + classify control-flow-landing (CFL) blocks per mode;
    + relocate every instrumentable function into a new [.instr] section,
      retargeting direct control flow, cloning jump tables into [.jtnew]
      (mode [Jt]+), rewriting function-pointer materializations and data
      slots (mode [Func_ptr]), and inserting the instrumentation payload at
      each basic block;
    + build the return-address map ([.ra_map] section) for runtime RA
      translation, or emit call-emulation sequences when configured like the
      SRBI baseline;
    + run trampoline placement: trampoline superblocks over scratch blocks,
      a scratch-space pool (padding bytes, retired dynamic-linking sections,
      unused superblock bytes) for multi-trampoline hops, and trap
      trampolines as the last resort;
    + move [.dynsym]/[.dynstr]/[.rela_dyn], append the runtime-library
      dynamic symbols, and emit the rewritten binary. Original code bytes of
      relocated functions are overwritten with illegal instructions (the
      paper's strong correctness test), so any missed control-flow landing
      crashes loudly. *)

type payload = P_empty | P_count

(** Where the payload is inserted. Function-entry instrumentation keeps the
    paper's high-level semantics: the payload runs once and only once per
    call, even when the entry address sits inside a loop, because the CFG
    (not the instruction stream) decides where the snippet goes. *)
type granularity = G_block | G_func_entry

type options = {
  mode : Mode.t;
  payload : payload;
  granularity : granularity;
  only : string list option;
      (** instrument only these functions (partial instrumentation) *)
  tramp_at_every_block : bool;  (** SRBI placement: every block gets one *)
  call_emulation : bool;
      (** emulate calls with original return addresses (Multiverse/SRBI) *)
  ra_translation : bool;  (** runtime RA translation (sections 3 and 6) *)
  use_superblocks : bool;
  use_scratch_pool : bool;
  instr_gap : int;  (** gap between the original image and [.instr] *)
  overwrite_original : bool;
  order : [ `Original | `Reverse_funcs | `Reverse_blocks ];
      (** emission order of relocated code — the code-reordering experiment
          of section 8.3 (fall-through edges are materialized as explicit
          branches when blocks move) *)
  rewrite_direct : bool;
      (** retarget direct branches/calls to relocated code; [false] models
          pure instruction patching (E9Patch), which leaves every original
          target in place and bounces through trampolines *)
  bounce_back : bool;
      (** jump back to the original code after every relocated block
          (instruction-patching ping-pong) *)
  dyn_translate : bool;
      (** Multiverse-style dynamic translation: indirect transfers call a
          runtime translation routine instead of bouncing *)
  sparse_placement : bool;
      (** the B_inst-aware refinement sketched in section 4.2: with
          function-entry granularity and the original code preserved
          ([overwrite_original = false]), install trampolines only at entry
          blocks — every CFL-to-instrumented path crosses a callee entry
          trampoline. Execution runs hybrid: unrewritten landings continue
          in the original code until the next call *)
}

val default_options : options
(** [Jt] mode, counting payload off ([P_empty]), full placement machinery. *)

val srbi_like : payload -> options
(** The Dyninst-10.2 / SRBI configuration: dir mode, every-block
    trampolines, call emulation instead of RA translation, no
    superblocks, no scratch pool. Every other field is
    [default_options]'s. *)

type stats = {
  s_funcs_total : int;
  s_funcs_instrumented : int;
  s_blocks : int;
  s_cfl_blocks : int;
  s_trampolines : int;
  s_short_trampolines : int;
  s_long_trampolines : int;
  s_multi_hop : int;
  s_trap_trampolines : int;
  s_cloned_tables : int;
  s_rewritten_slots : int;
  s_orig_size : int;
  s_new_size : int;
}

val pp_stats : Format.formatter -> stats -> unit
(** Raw counts plus the derived ratios the report JSON carries: trampolines
    per CFL block, trap share, size growth percentage ({!Stats}). *)

type t = {
  rw_binary : Icfg_obj.Binary.t;
      (** the output image. It shares every section it does not write
          with the input binary, and writes go only through
          {!Icfg_obj.Binary.patch}, which copies what it writes *)
  rw_ra_map : Icfg_runtime.Runtime_lib.Ra_map.t;
  rw_trap_map : (int, int) Hashtbl.t;
  rw_counter_of_site : (int, int) Hashtbl.t;
      (** [CallRt] count-site (link address) -> original block address *)
  rw_dt_sites : (int, Icfg_isa.Reg.t) Hashtbl.t;
      (** dynamic-translation call sites -> the register holding the
          indirect target at that site *)
  rw_go_hook : bool;  (** findfunc/pcvalue entry translation installed *)
  rw_translate_hook : bool;  (** libunwind-style step wrapping installed *)
  rw_stats : stats;
  rw_attribution : Attribution.t;
      (** per-block / per-site cause attribution; observation-only — a pure
          function of the rewrite output, and its totals exactly tile
          [rw_stats] (see {!Attribution}) *)
  rw_relocated_entry : int -> int option;
      (** original block/entry address -> relocated address *)
}

val rewrite : ?cache:Cache.t -> ?options:options -> Icfg_analysis.Parse.t -> t
(** Rewrite the parsed binary. The input binary is not mutated, and every
    stage is computed on every call. Layout is always
    {!Icfg_codegen.Asm.layout_pinned}. [cache] holds the previous run's
    layout of this binary (by name) under these options, and this run's
    layout replaces it. Output is byte-identical to an uncached rewrite
    unless a function's relocated size changed since that snapshot; then
    unchanged functions keep their previous addresses, and the
    functions that changed are placed into the holes around them. *)
