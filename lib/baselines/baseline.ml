open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Parse = Icfg_analysis.Parse
module Failure_model = Icfg_analysis.Failure_model
module Cfg = Icfg_analysis.Cfg
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode

type outcome = Rewritten of Rewriter.t | Refused of string

let default_payload = Rewriter.P_empty

(* ------------------------------------------------------------------ *)
(* Dyninst-10.2 / SRBI                                                 *)
(* ------------------------------------------------------------------ *)

let srbi ?(payload = default_payload) bin =
  if
    bin.Binary.features.Binary.cpp_exceptions
    && bin.Binary.arch <> Arch.X86_64
  then
    Refused
      "call emulation for C++ exceptions is only implemented on x86-64 in \
       Dyninst-10.2"
  else
    let parse = Parse.parse ~fm:Failure_model.srbi bin in
    let rw = Rewriter.rewrite ~options:(Rewriter.srbi_like payload) parse in
    if rw.Rewriter.rw_stats.Rewriter.s_trap_trampolines > 10 then
      Refused
        "heavy trap-trampoline use; Dyninst-10.2's runtime-library signal \
         delivery is broken (the 602.gcc failure)"
    else if bin.Binary.arch = Arch.Ppc64le then
      (* Dyninst-10.2 reserves a conservatively-sized trap-mapping area per
         basic block on ppc64le — the Table 3 size blow-up. *)
      let blocks = rw.Rewriter.rw_stats.Rewriter.s_blocks in
      let map_size = 72 * blocks in
      let out = rw.Rewriter.rw_binary in
      let out =
        Binary.add_section out
          (Section.make ~name:".trapmap"
             ~vaddr:((Binary.code_end out + 0xfff) / 0x1000 * 0x1000)
             ~perm:Section.r_only
             (Bytes.make map_size '\000'))
      in
      let stats =
        { rw.Rewriter.rw_stats with Rewriter.s_new_size = Binary.loaded_size out }
      in
      Rewritten { rw with Rewriter.rw_binary = out; rw_stats = stats }
    else Rewritten rw

(* ------------------------------------------------------------------ *)
(* Egalito-style IR lowering                                           *)
(* ------------------------------------------------------------------ *)

let ir_lowering ?(payload = default_payload) bin =
  let feat = bin.Binary.features in
  if not bin.Binary.pie then
    Refused "IR lowering requires PIE with run-time relocation entries"
  else if feat.Binary.cpp_exceptions then
    Refused "C++ exceptions are not supported (known Egalito limitation)"
  else if feat.Binary.go_runtime then
    Refused "Go metadata and builtin stack unwinding are not supported"
  else if feat.Binary.rust_metadata then
    Refused "unsupported Rust metadata (the libxul failure)"
  else if feat.Binary.symbol_versioning then
    Refused "cannot rewrite symbol versioning information (the libcuda failure)"
  else
    let parse = Parse.parse bin in
    if Parse.coverage parse < 1.0 then
      let bad =
        List.find (fun f -> not f.Parse.fa_instrumentable) parse.Parse.funcs
      in
      Refused
        (Printf.sprintf
           "all-or-nothing: cannot lift function %s (%s)"
           bad.Parse.fa_sym.Icfg_obj.Symbol.name
           (Option.value ~default:"?" bad.Parse.fa_fail_reason))
    else
      let options =
        {
          Rewriter.default_options with
          Rewriter.mode = Mode.Func_ptr;
          payload;
          ra_translation = false;
        }
      in
      let rw = Rewriter.rewrite ~options parse in
      (* Regeneration: the original code and retired metadata are dropped
         and the entry point moves into the regenerated code. *)
      let entry =
        match rw.Rewriter.rw_relocated_entry bin.Binary.entry with
        | Some e -> e
        | None -> bin.Binary.entry
      in
      let dropped =
        [ ".text"; ".dynsym.old"; ".dynstr.old"; ".rela_dyn.old"; ".ra_map" ]
      in
      let sections =
        List.filter
          (fun (s : Section.t) -> not (List.mem s.Section.name dropped))
          rw.Rewriter.rw_binary.Binary.sections
      in
      let out = { (Binary.with_sections rw.Rewriter.rw_binary sections) with Binary.entry } in
      let stats =
        { rw.Rewriter.rw_stats with Rewriter.s_new_size = Binary.loaded_size out }
      in
      Rewritten { rw with Rewriter.rw_binary = out; rw_stats = stats }

(* ------------------------------------------------------------------ *)
(* E9Patch-style instruction patching                                  *)
(* ------------------------------------------------------------------ *)

let insn_patching ?(payload = default_payload) bin =
  let parse = Parse.parse bin in
  let options =
    {
      Rewriter.default_options with
      Rewriter.mode = Mode.Dir;
      payload;
      tramp_at_every_block = true;
      rewrite_direct = false;
      bounce_back = true;
      ra_translation = false;
      use_superblocks = false;
      use_scratch_pool = false;
    }
  in
  Rewritten (Rewriter.rewrite ~options parse)

(* ------------------------------------------------------------------ *)
(* Multiverse-style dynamic translation                                *)
(* ------------------------------------------------------------------ *)

let dynamic_translation ?(payload = default_payload) bin =
  let parse = Parse.parse bin in
  let options =
    {
      Rewriter.default_options with
      Rewriter.mode = Mode.Dir;
      payload;
      dyn_translate = true;
      call_emulation = true;
      ra_translation = false;
    }
  in
  Rewritten (Rewriter.rewrite ~options parse)

(* ------------------------------------------------------------------ *)
(* BOLT-like optimizer                                                 *)
(* ------------------------------------------------------------------ *)

let bolt_function_reorder bin =
  if bin.Binary.link_relocs = [] then
    Refused
      "BOLT-ERROR: function reordering only works when relocations are \
       enabled"
  else
    let parse = Parse.parse bin in
    let options =
      { Rewriter.default_options with Rewriter.order = `Reverse_funcs }
    in
    Rewritten (Rewriter.rewrite ~options parse)

let has_mem_indirect_call (parse : Parse.t) =
  List.exists
    (fun fa ->
      List.exists
        (fun (b : Cfg.block) ->
          List.exists
            (fun (_, insn, _) ->
              match insn with Insn.IndCallMem _ -> true | _ -> false)
            b.Cfg.b_insns)
        fa.Parse.fa_cfg.Cfg.blocks)
    parse.Parse.funcs

let bolt_block_reorder bin =
  let parse = Parse.parse bin in
  let options =
    { Rewriter.default_options with Rewriter.order = `Reverse_blocks }
  in
  let rw = Rewriter.rewrite ~options parse in
  if has_mem_indirect_call parse then
    (* Emit a corrupted image: the entry is clobbered, so the binary cannot
       be loaded — the "bad .interp data" failure of section 8.3. *)
    Rewritten
      { rw with Rewriter.rw_binary = { rw.Rewriter.rw_binary with Binary.entry = 2 } }
  else Rewritten rw

(* ------------------------------------------------------------------ *)
(* This paper's system                                                 *)
(* ------------------------------------------------------------------ *)

let ours ?(payload = default_payload) ~mode bin =
  let parse = Parse.parse bin in
  let options = { Rewriter.default_options with Rewriter.mode; payload } in
  Rewritten (Rewriter.rewrite ~options parse)

let ours_partial ?(payload = default_payload) ~mode ~only bin =
  let parse = Parse.parse bin in
  let options =
    { Rewriter.default_options with Rewriter.mode; payload; only = Some only }
  in
  Rewritten (Rewriter.rewrite ~options parse)

(* ------------------------------------------------------------------ *)
(* The comparative-sweep roster                                        *)
(* ------------------------------------------------------------------ *)

let approaches =
  [
    ("srbi", fun bin -> srbi bin);
    ("ir-lowering", fun bin -> ir_lowering bin);
    ("insn-patching", fun bin -> insn_patching bin);
    ("dyn-translation", fun bin -> dynamic_translation bin);
    ("ours/dir", fun bin -> ours ~mode:Mode.Dir bin);
    ("ours/jt", fun bin -> ours ~mode:Mode.Jt bin);
    ("ours/func-ptr", fun bin -> ours ~mode:Mode.Func_ptr bin);
  ]

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* Stable histogram keys for the documented refusal messages, in the
   axis/name style of [Attribution.key]: whole-binary metadata refusals get
   the "feature" axis; the all-or-nothing analysis refusal maps onto the
   attribution cause of the function that defeated it ("func/unresolved-
   indirect-jump"); the SRBI trap refusal is a trampoline-placement
   failure ("tramp/trap"). *)
let refusal_key reason =
  if contains ~sub:"trap-trampoline" reason then "tramp/trap"
  else if contains ~sub:"all-or-nothing" reason then
    "func/unresolved-indirect-jump"
  else if contains ~sub:"C++ exceptions" reason then "feature/cpp-exceptions"
  else if contains ~sub:"requires PIE" reason then "feature/non-pie"
  else if contains ~sub:"Go metadata" reason then "feature/go-runtime"
  else if contains ~sub:"Rust metadata" reason then "feature/rust-metadata"
  else if contains ~sub:"symbol versioning" reason then
    "feature/symbol-versioning"
  else if contains ~sub:"relocations are enabled" reason then
    "feature/link-relocs"
  else "feature/other"

let legacy_dyninst ?(payload = default_payload) ~only bin =
  let parse = Parse.parse ~fm:Failure_model.srbi bin in
  let options =
    {
      (Rewriter.srbi_like payload) with
      Rewriter.only = Some only;
      (* Mainstream Dyninst placed the relocated area at a fixed far
         address; for driver-sized binaries that exceeds the ppc64le and
         aarch64 short-branch ranges. *)
      instr_gap = 160 * 1024 * 1024;
    }
  in
  Rewritten (Rewriter.rewrite ~options parse)
