(* Golden outputs: the rewriter's output for a fixed set of inputs,
   pinned by digest in [golden_outputs.txt].

   One line per input. A rewrite line holds the digest of each rewrite's
   [fingerprint] (section bytes, header, relocations, symbols, stats, RA
   map and runtime maps), then the first rewrite's [Vm] outcome, a digest
   of its output and its cycle count under [Runner.measure_config]. A
   parse line holds the digest of [parse_view]. The inputs:

   - every spec-suite binary on every ISA in every mode, rewritten as
     [ours/<mode>] (empty payload, the configuration the paper's overhead
     numbers use; the cycle count pins them) and with the counting
     payload;
   - the five option variants that exercise different placement and
     codegen paths;
   - a Go binary per ISA (runtime hooks, vtable paths);
   - the parse of the first spec binary of each ISA.

   An intended output change is committed by regenerating the lines: on a
   mismatch the test prints every line it computed for its group, ready
   to replace that group's lines in the file. *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Spec_suite = Icfg_workloads.Spec_suite
module Parse = Icfg_analysis.Parse
module Runner = Icfg_harness.Runner
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Ra_map = Icfg_runtime.Runtime_lib.Ra_map

(* ------------------------------------------------------------------ *)
(* Structural comparison of two rewrites                               *)
(* ------------------------------------------------------------------ *)

let section_image (s : Section.t) =
  (s.Section.name, s.Section.vaddr, Bytes.to_string s.Section.data,
   s.Section.perm, s.Section.loaded)

let sorted_tbl tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Everything observable about a rewrite except [rw_relocated_entry]
   (a closure; its behaviour is pinned by the trap map and RA map). *)
let fingerprint (rw : Rewriter.t) =
  let bin = rw.Rewriter.rw_binary in
  ( List.map section_image bin.Binary.sections,
    (bin.Binary.entry, bin.Binary.pie, bin.Binary.relocs, bin.Binary.symbols),
    rw.Rewriter.rw_stats,
    Ra_map.pairs rw.Rewriter.rw_ra_map,
    ( sorted_tbl rw.Rewriter.rw_trap_map,
      sorted_tbl rw.Rewriter.rw_counter_of_site,
      sorted_tbl rw.Rewriter.rw_dt_sites,
      rw.Rewriter.rw_go_hook,
      rw.Rewriter.rw_translate_hook ) )

let equal_rewrite a b = fingerprint a = fingerprint b

(* Describe the first difference; "" when identical. *)
let diff_rewrite a b =
  let (sa, ba, sta, ra, ma) = fingerprint a in
  let (sb, bb, stb, rb, mb) = fingerprint b in
  if sa <> sb then
    match
      List.find_opt
        (fun ((n, v, d, p, l), (n', v', d', p', l')) ->
          (n, v, p, l) <> (n', v', p', l') || d <> d')
        (try List.combine sa sb with Invalid_argument _ -> [])
    with
    | Some ((n, v, _, _, _), _) ->
        Printf.sprintf "section %s@0x%x differs" n v
    | None -> "section lists differ in length"
  else if ba <> bb then "binary header/relocs/symbols differ"
  else if sta <> stb then "stats differ"
  else if ra <> rb then "RA maps differ"
  else if ma <> mb then "runtime maps differ"
  else ""

let check_same ~what expected actual =
  Alcotest.(check string) what "" (diff_rewrite expected actual)

let opts mode =
  { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

(* CFGs carry hashtables, so a parse is compared through a projection:
   per function its identity, instrumentability, per-block live-in
   registers, table count and tail jumps, plus the full function-pointer
   site list and the pointer-derived targets. *)
let parse_view (p : Parse.t) =
  ( List.map
      (fun fa ->
        ( fa.Parse.fa_sym.Icfg_obj.Symbol.name,
          fa.Parse.fa_sym.Icfg_obj.Symbol.addr,
          fa.Parse.fa_instrumentable,
          fa.Parse.fa_fail_reason,
          List.map
            (fun (b : Icfg_analysis.Cfg.block) ->
              ( b.Icfg_analysis.Cfg.b_start,
                Reg.Set.elements
                  (Icfg_analysis.Liveness.live_in fa.Parse.fa_liveness
                     b.Icfg_analysis.Cfg.b_start) ))
            fa.Parse.fa_cfg.Icfg_analysis.Cfg.blocks,
          List.length fa.Parse.fa_tables,
          fa.Parse.fa_tail_jumps ))
      p.Parse.funcs,
    p.Parse.fptrs,
    p.Parse.pointer_targets )

(* ------------------------------------------------------------------ *)
(* Golden lines                                                        *)
(* ------------------------------------------------------------------ *)

(* Sharing-free, so the digest depends on the value alone. *)
let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* [key fp...]: the rewrites' fingerprint digests, then the first
   rewrite's Vm outcome, output digest and cycles. *)
let rewrite_line key = function
  | [] -> invalid_arg "rewrite_line"
  | rw :: _ as rws ->
      let r = Runner.run_rewritten rw in
      let outcome, out =
        match r.Runner.r_outcome with
        | Icfg_runtime.Vm.Halted -> ("halted", digest r.Runner.r_output)
        | Icfg_runtime.Vm.Crashed m -> ("crashed", digest (m, r.Runner.r_output))
      in
      String.concat " "
        ((key :: List.map (fun rw -> digest (fingerprint rw)) rws)
        @ [ outcome; out; string_of_int r.Runner.r_cycles ])

(* [dune runtest] runs in the build's test directory; [dune exec] from
   the repository root. *)
let golden_file = "test/golden_outputs.txt"

let golden =
  lazy
    (let path =
       if Sys.file_exists golden_file then golden_file
       else Filename.basename golden_file
     in
     let tbl = Hashtbl.create 256 in
     In_channel.with_open_text path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.iter (fun l ->
            match String.index_opt l ' ' with
            | Some i -> Hashtbl.replace tbl (String.sub l 0 i) l
            | None -> ());
     tbl)

(* Compare a group's computed lines with the committed ones; on any
   difference print the whole group as computed, so regenerating means
   pasting these lines over the group's old ones. *)
let check_group group lines =
  let tbl = Lazy.force golden in
  let key l = String.sub l 0 (String.index l ' ') in
  let bad =
    List.filter (fun l -> Hashtbl.find_opt tbl (key l) <> Some l) lines
  in
  if bad <> [] then begin
    Printf.printf "golden %s: %d of %d lines differ; computed lines:\n%s\n%!"
      group (List.length bad) (List.length lines) (String.concat "\n" lines);
    Alcotest.failf "golden %s: %s differ from %s" group
      (String.concat ", " (List.map key bad))
      golden_file
  end

(* ------------------------------------------------------------------ *)
(* Groups                                                              *)
(* ------------------------------------------------------------------ *)

let spec_group arch mode () =
  check_group
    (Printf.sprintf "spec/%s/%s" (Arch.name arch) (Mode.name mode))
    (List.map
       (fun (bench : Spec_suite.bench) ->
         let bin, _ = Spec_suite.compile arch bench in
         let ours = { Rewriter.default_options with Rewriter.mode } in
         rewrite_line
           (Printf.sprintf "spec/%s/%s/%s" (Arch.name arch)
              bench.Spec_suite.bench_name (Mode.name mode))
           [
             Runner.rewrite ~options:ours bin;
             Runner.rewrite ~options:(opts mode) bin;
           ])
       (Spec_suite.benchmarks arch))

let variants =
  [
    ("srbi-like", Rewriter.srbi_like Rewriter.P_count);
    ( "reverse-funcs",
      { (opts Mode.Jt) with Rewriter.order = `Reverse_funcs } );
    ( "reverse-blocks",
      { (opts Mode.Jt) with Rewriter.order = `Reverse_blocks } );
    ( "sparse-placement",
      {
        (opts Mode.Func_ptr) with
        Rewriter.granularity = Rewriter.G_func_entry;
        overwrite_original = false;
        sparse_placement = true;
      } );
    ("dyn-translate", { (opts Mode.Jt) with Rewriter.dyn_translate = true });
  ]

let variant_group () =
  let bench = List.hd (Spec_suite.benchmarks Arch.X86_64) in
  let bin, _ = Spec_suite.compile Arch.X86_64 bench in
  check_group "variant"
    (List.map
       (fun (name, options) ->
         rewrite_line ("variant/" ^ name) [ Runner.rewrite ~options bin ])
       variants)

let go_group arch () =
  let adjust = if arch = Arch.X86_64 then 1 else 4 in
  let spec = Gen.go_spec ~seed:7 ~name:"goparallel" ~iters:5 in
  let prog = Gen.build_go ~vtab_check:false ~goexit_adjust:adjust spec in
  let bin, _ = Icfg_codegen.Compile.compile ~pie:true arch prog in
  let key = "go/" ^ Arch.name arch in
  check_group key
    [ rewrite_line key [ Runner.rewrite ~options:(opts Mode.Jt) bin ] ]

let parse_group arch () =
  let bench = List.hd (Spec_suite.benchmarks arch) in
  let bin, _ = Spec_suite.compile arch bench in
  let key = "parse/" ^ Arch.name arch in
  check_group key [ key ^ " " ^ digest (parse_view (Runner.parse bin)) ]

let suite =
  [
    ( "golden",
      List.concat_map
        (fun arch ->
          List.map
            (fun mode ->
              Alcotest.test_case
                (Printf.sprintf "spec %s %s" (Arch.name arch) (Mode.name mode))
                `Quick (spec_group arch mode))
            Mode.all)
        Arch.all
      @ [ Alcotest.test_case "option variants" `Quick variant_group ]
      @ List.map
          (fun arch ->
            Alcotest.test_case ("go " ^ Arch.name arch) `Quick (go_group arch))
          Arch.all
      @ List.map
          (fun arch ->
            Alcotest.test_case ("parse view " ^ Arch.name arch) `Quick
              (parse_group arch))
          Arch.all );
  ]
