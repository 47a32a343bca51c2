(* Object-layer tests: sections, symbols, relocations, eh_frame and the
   binary container. *)

open Icfg_isa
module Section = Icfg_obj.Section
module Ir = Icfg_codegen.Ir
module Symbol = Icfg_obj.Symbol
module Reloc = Icfg_obj.Reloc
module Ehframe = Icfg_obj.Ehframe
module Binary = Icfg_obj.Binary

let sect ?(perm = Section.r_only) name vaddr size =
  Section.make ~name ~vaddr ~perm (Bytes.make size '\000')

let mk_binary sections =
  Binary.make ~name:"t" ~arch:Arch.X86_64 ~entry:0x1000
    ~symbols:
      [
        Symbol.make ~name:"f" ~addr:0x1000 ~size:0x40 Symbol.Func;
        Symbol.make ~name:"g" ~addr:0x1040 ~size:0x40 Symbol.Func;
        Symbol.make ~name:"obj" ~addr:0x2000 ~size:8 Symbol.Object;
      ]
    sections

let test_section_basics () =
  let s = sect ".text" 0x1000 0x100 in
  Alcotest.(check int) "size" 0x100 (Section.size s);
  Alcotest.(check int) "end" 0x1100 (Section.end_vaddr s);
  Alcotest.(check bool) "contains start" true (Section.contains s 0x1000);
  Alcotest.(check bool) "contains last" true (Section.contains s 0x10FF);
  Alcotest.(check bool) "not end" false (Section.contains s 0x1100);
  Alcotest.(check string) "rename" ".old" (Section.rename s ".old").Section.name

let test_overlap_rejected () =
  match mk_binary [ sect ".a" 0x1000 0x100; sect ".b" 0x10FF 0x10 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping sections must be rejected"

let test_adjacent_ok () =
  let b = mk_binary [ sect ".a" 0x1000 0x100; sect ".b" 0x1100 0x10 ] in
  Alcotest.(check int) "two sections" 2 (List.length b.Binary.sections)

let test_byte_access () =
  let b = mk_binary [ sect ~perm:Section.r_w ".d" 0x1000 0x100 ] in
  Binary.write64 b 0x1008 (-42);
  Alcotest.(check int) "w64/r64" (-42) (Binary.read64 b 0x1008);
  Binary.write32 b 0x1010 (-5);
  Alcotest.(check int) "w32/r32 signed" (-5) (Binary.read32 b 0x1010);
  Binary.write16 b 0x1018 0x8001;
  Alcotest.(check int) "w16/r16 sign extends" (-32767) (Binary.read16 b 0x1018);
  Binary.write8 b 0x101A 0x80;
  Alcotest.(check int) "w8/r8 sign extends" (-128) (Binary.read8 b 0x101A);
  Binary.write_string b 0x1020 "hi";
  Alcotest.(check int) "string write" (Char.code 'h') (Binary.read8 b 0x1020);
  (match Binary.read8 b 0x5000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unmapped read must raise");
  match Binary.read64 b 0x10FC with
  | exception Invalid_argument _ -> () (* crosses the end *)
  | _ -> Alcotest.fail "cross-boundary read must raise"

let test_copy_is_deep () =
  let b = mk_binary [ sect ~perm:Section.r_w ".d" 0x1000 0x10 ] in
  let c = Binary.copy b in
  Binary.write64 b 0x1000 7;
  Alcotest.(check int) "copy unaffected" 0 (Binary.read64 c 0x1000)

let test_symbol_lookup () =
  let b = mk_binary [ sect ".text" 0x1000 0x100 ] in
  Alcotest.(check bool) "by name" true (Binary.symbol b "g" <> None);
  (match Binary.symbol_at b 0x1050 with
  | Some s -> Alcotest.(check string) "covering symbol" "g" s.Symbol.name
  | None -> Alcotest.fail "symbol_at");
  Alcotest.(check bool) "object symbols excluded from func lookup" true
    (Binary.symbol_at b 0x2004 = None);
  Alcotest.(check int) "func symbols" 2 (List.length (Binary.func_symbols b))

let test_loaded_size () =
  let unloaded =
    Section.make ~loaded:false ~name:".debug" ~vaddr:0x9000
      ~perm:Section.r_only (Bytes.make 0x1000 '\000')
  in
  let b = mk_binary [ sect ".a" 0x1000 0x100; unloaded ] in
  Alcotest.(check int) "only loaded counted" 0x100 (Binary.loaded_size b);
  Alcotest.(check int) "code_end ignores unloaded" 0x1100 (Binary.code_end b)

let test_map_section () =
  let b = mk_binary [ sect ".a" 0x1000 0x10 ] in
  let b' = Binary.map_section b ".a" (fun s -> Section.rename s ".z") in
  Alcotest.(check bool) "renamed" true (Binary.section b' ".z" <> None);
  match Binary.map_section b ".missing" (fun s -> s) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing section must raise"

(* ------------------------------------------------------------------ *)
(* Ehframe                                                             *)
(* ------------------------------------------------------------------ *)

let fde start stop pads =
  {
    Ehframe.func_start = start;
    func_end = stop;
    frame_size = 16;
    ra_loc = Ehframe.Ra_on_stack 8;
    landing_pads = pads;
  }

let test_ehframe_find () =
  let t =
    Ehframe.of_fdes [ fde 0x3000 0x3100 []; fde 0x1000 0x1100 []; fde 0x2000 0x2100 [] ]
  in
  (match Ehframe.find t 0x1000 with
  | Some f -> Alcotest.(check int) "first byte" 0x1000 f.Ehframe.func_start
  | None -> Alcotest.fail "find start");
  (match Ehframe.find t 0x20FF with
  | Some f -> Alcotest.(check int) "last byte" 0x2000 f.Ehframe.func_start
  | None -> Alcotest.fail "find end");
  Alcotest.(check bool) "miss below" true (Ehframe.find t 0x0FFF = None);
  Alcotest.(check bool) "miss between" true (Ehframe.find t 0x1100 = None);
  Alcotest.(check bool) "miss above" true (Ehframe.find t 0x9000 = None)

let ehframe_find_prop =
  QCheck2.Test.make ~count:300 ~name:"ehframe find agrees with linear scan"
    QCheck2.Gen.(
      pair
        (small_list (int_range 0 50))
        (int_range 0 600))
    (fun (starts, pc) ->
      (* disjoint fdes of width 8 at starts*10 *)
      let starts = List.sort_uniq compare starts in
      let fdes = List.map (fun s -> fde (s * 10) ((s * 10) + 8) []) starts in
      let t = Ehframe.of_fdes fdes in
      let linear =
        List.find_opt
          (fun f -> pc >= f.Ehframe.func_start && pc < f.Ehframe.func_end)
          fdes
      in
      Ehframe.find t pc = linear)

let test_handler_ranges () =
  let f = fde 0x1000 0x1100 [ (0x1010, 0x1020, 0x1080); (0x1030, 0x1040, 0x1090) ] in
  Alcotest.(check (option int)) "in first" (Some 0x1080)
    (Ehframe.handler_for f ~pc:0x1010);
  Alcotest.(check (option int)) "last byte of range" (Some 0x1080)
    (Ehframe.handler_for f ~pc:0x101F);
  Alcotest.(check (option int)) "range end excluded" None
    (Ehframe.handler_for f ~pc:0x1020);
  Alcotest.(check (option int)) "in second" (Some 0x1090)
    (Ehframe.handler_for f ~pc:0x1035);
  Alcotest.(check (option int)) "outside" None (Ehframe.handler_for f ~pc:0x1050)

let test_relocs () =
  let r = Reloc.relative ~offset:0x2000 ~addend:0x1000 in
  Alcotest.(check bool) "runtime" true (Reloc.is_runtime r);
  let l = Reloc.link ~offset:0x2000 ~sym:"f" ~addend:4 in
  Alcotest.(check bool) "link-time" false (Reloc.is_runtime l)

(* ------------------------------------------------------------------ *)
(* Binfile                                                             *)
(* ------------------------------------------------------------------ *)

module Binfile = Icfg_obj.Binfile
module Vm = Icfg_runtime.Vm

let binary_equal (a : Binary.t) (b : Binary.t) =
  a.Binary.name = b.Binary.name
  && a.Binary.arch = b.Binary.arch
  && a.Binary.pie = b.Binary.pie
  && a.Binary.entry = b.Binary.entry
  && a.Binary.toc_base = b.Binary.toc_base
  && a.Binary.features = b.Binary.features
  && a.Binary.dynsyms = b.Binary.dynsyms
  && a.Binary.relocs = b.Binary.relocs
  && a.Binary.link_relocs = b.Binary.link_relocs
  && Ehframe.fdes a.Binary.eh_frame = Ehframe.fdes b.Binary.eh_frame
  && a.Binary.symbols = b.Binary.symbols
  && List.for_all2
       (fun (x : Section.t) (y : Section.t) ->
         x.Section.name = y.Section.name
         && x.Section.vaddr = y.Section.vaddr
         && x.Section.perm = y.Section.perm
         && x.Section.loaded = y.Section.loaded
         && Bytes.equal x.Section.data y.Section.data)
       a.Binary.sections b.Binary.sections

let test_binfile_roundtrip () =
  List.iter
    (fun arch ->
      List.iter
        (fun pie ->
          let bin, _ =
            Icfg_codegen.Compile.compile ~pie arch Test_codegen.prog_exceptions
          in
          let bin' = Binfile.of_bytes (Binfile.to_bytes bin) in
          Alcotest.(check bool)
            (Printf.sprintf "%s pie=%b roundtrip" (Arch.name arch) pie)
            true (binary_equal bin bin'))
        [ false; true ])
    Arch.all

let test_binfile_rejects_garbage () =
  (match Binfile.of_bytes (Bytes.of_string "NOTMAGIC") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad magic must be rejected");
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 Test_codegen.prog_loop in
  let good = Binfile.to_bytes bin in
  match Binfile.of_bytes (Bytes.sub good 0 (Bytes.length good / 2)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncated input must be rejected"

let test_binfile_string_is_bytes () =
  (* [to_string] and [to_bytes] write the same container, and it decodes
     back to the input — also with an empty section, and with none. *)
  let mk sections =
    Binary.make ~name:"edge" ~arch:Arch.Aarch64 ~entry:0x1000 ~symbols:[] sections
  in
  let text = Section.make ~name:".text" ~vaddr:0x1000 ~perm:Section.r_x (Bytes.make 16 '\x2a') in
  let empty = Section.make ~name:".bss" ~vaddr:0x2000 ~perm:Section.r_w Bytes.empty in
  let data = Section.make ~name:".data" ~vaddr:0x3000 ~perm:Section.r_w (Bytes.of_string "tail") in
  List.iter
    (fun (what, bin) ->
      let b = Binfile.to_bytes bin in
      Alcotest.(check string) (what ^ ": to_string = to_bytes") (Bytes.to_string b)
        (Binfile.to_string bin);
      Alcotest.(check bool) (what ^ ": roundtrip") true
        (binary_equal bin (Binfile.of_string (Binfile.to_string bin))))
    [ ("no sections", mk []); ("empty section", mk [ text; empty; data ]) ]

let test_binfile_rewritten_runs_after_reload () =
  (* The full producer-consumer flow: rewrite, save, load, run — the loaded
     binary behaves like the in-memory one (the trap map is re-derivable
     only in-memory, so use a trap-free rewrite). *)
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.X86_64 (Test_codegen.switch_prog Ir.Jt_plain)
  in
  let parse = Icfg_analysis.Parse.parse bin in
  let rw = Icfg_core.Rewriter.rewrite parse in
  let module Rewriter = Icfg_core.Rewriter in
  let path = Filename.temp_file "icfg" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Binfile.save path rw.Rewriter.rw_binary;
      let loaded = Binfile.load path in
      Alcotest.(check bool) "roundtrip" true
        (binary_equal rw.Rewriter.rw_binary loaded);
      let orig = Vm.run ~routines:(Icfg_runtime.Runtime_lib.standard ()) bin in
      let config = Rewriter.vm_config_for rw (Vm.default_config ()) in
      let r =
        Vm.run ~config
          ~routines:(Rewriter.routines_for rw ~counters:(Hashtbl.create 4))
          loaded
      in
      Alcotest.(check bool) "loaded binary halts" true (r.Vm.outcome = Vm.Halted);
      Alcotest.(check (list int)) "same output" orig.Vm.output r.Vm.output)

(* ------------------------------------------------------------------ *)
(* Verify (the strong test as a library)                               *)
(* ------------------------------------------------------------------ *)

module Verify = Icfg_core.Verify

let test_verify_ok () =
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.Aarch64 (Test_codegen.switch_prog Ir.Jt_plain)
  in
  let report = Verify.strong_test bin in
  Alcotest.(check bool) "ok" true report.Verify.ok;
  Alcotest.(check bool) "blocks checked" true (report.Verify.blocks_checked > 10);
  Alcotest.(check bool) "blocks executed" true
    (report.Verify.blocks_executed > 0
    && report.Verify.blocks_executed <= report.Verify.blocks_checked)

let test_verify_detects_under_approximation () =
  (* Inject the catastrophic failure; the strong test must flag it. *)
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.X86_64 (Test_codegen.switch_prog Ir.Jt_plain)
  in
  let fm =
    Icfg_analysis.Failure_model.with_bounds Icfg_analysis.Failure_model.ours
      (Icfg_analysis.Failure_model.Bound_under 2)
  in
  let report = Verify.strong_test ~fm bin in
  Alcotest.(check bool) "caught" false report.Verify.ok;
  Alcotest.(check bool) "reported" true (report.Verify.failures <> [])

let suite =
  [
    ( "obj:sections",
      [
        Alcotest.test_case "basics" `Quick test_section_basics;
        Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
        Alcotest.test_case "adjacent ok" `Quick test_adjacent_ok;
      ] );
    ( "obj:binary",
      [
        Alcotest.test_case "byte access" `Quick test_byte_access;
        Alcotest.test_case "copy is deep" `Quick test_copy_is_deep;
        Alcotest.test_case "symbol lookup" `Quick test_symbol_lookup;
        Alcotest.test_case "loaded size" `Quick test_loaded_size;
        Alcotest.test_case "map section" `Quick test_map_section;
      ] );
    ( "obj:ehframe",
      [
        Alcotest.test_case "find" `Quick test_ehframe_find;
        QCheck_alcotest.to_alcotest ehframe_find_prop;
        Alcotest.test_case "handler ranges" `Quick test_handler_ranges;
        Alcotest.test_case "relocs" `Quick test_relocs;
      ] );
    ( "obj:binfile",
      [
        Alcotest.test_case "roundtrip" `Quick test_binfile_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_binfile_rejects_garbage;
        Alcotest.test_case "to_string = to_bytes; empty/no sections" `Quick
          test_binfile_string_is_bytes;
        Alcotest.test_case "save/load/run" `Quick
          test_binfile_rewritten_runs_after_reload;
      ] );
    ( "core:verify",
      [
        Alcotest.test_case "strong test passes" `Quick test_verify_ok;
        Alcotest.test_case "catches under-approximation" `Quick
          test_verify_detects_under_approximation;
      ] );
  ]
