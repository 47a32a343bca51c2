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

(* The low [n] bytes of [v], little-endian. *)
let le n v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.sub_string b 0 n

let test_byte_access () =
  let b0 = mk_binary [ sect ~perm:Section.r_w ".d" 0x1000 0x100 ] in
  let b =
    Binary.patch b0
      [
        (0x1008, le 8 (-42));
        (0x1010, le 4 (-5));
        (0x1018, le 2 0x8001);
        (0x101A, le 1 0x80);
        (0x1020, "hi");
      ]
  in
  Alcotest.(check int) "w64/r64" (-42) (Binary.read64 b 0x1008);
  Alcotest.(check int) "w32/r32 signed" (-5) (Binary.read32 b 0x1010);
  Alcotest.(check int) "w16/r16 sign extends" (-32767) (Binary.read16 b 0x1018);
  Alcotest.(check int) "w8/r8 sign extends" (-128) (Binary.read8 b 0x101A);
  Alcotest.(check int) "string write" (Char.code 'h') (Binary.read8 b 0x1020);
  (match Binary.read8 b 0x5000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unmapped read must raise");
  (match Binary.patch b [ (0x10FC, le 8 1) ] with
  | exception Invalid_argument _ -> () (* crosses the end *)
  | _ -> Alcotest.fail "cross-boundary write must raise");
  match Binary.read64 b 0x10FC with
  | exception Invalid_argument _ -> () (* crosses the end *)
  | _ -> Alcotest.fail "cross-boundary read must raise"

let test_patch_leaves_input () =
  let b =
    mk_binary [ sect ~perm:Section.r_w ".d" 0x1000 0x10; sect ".e" 0x2000 0x10 ]
  in
  let c = Binary.patch b [ (0x1000, le 8 7) ] in
  Alcotest.(check int) "patched" 7 (Binary.read64 c 0x1000);
  Alcotest.(check int) "input unchanged" 0 (Binary.read64 b 0x1000);
  let data name x = (Binary.section_exn x name).Section.data in
  Alcotest.(check bool) "unwritten section shared" true (data ".e" c == data ".e" b)

(* A section with a zero tail: reads past the stored prefix are 0, a patch
   grows the prefix only as far as its write reaches, and sizes count the
   tail. *)
let test_zero_tail () =
  let tail =
    Section.make ~name:".big" ~vaddr:0x4000 ~perm:Section.r_w ~size:0x1000
      (Bytes.of_string "\x01\x02\x03")
  in
  let b = mk_binary [ sect ".a" 0x1000 0x100; tail ] in
  Alcotest.(check int) "declared size" 0x1000 (Section.size tail);
  Alcotest.(check int) "loaded size counts the tail" 0x1100 (Binary.loaded_size b);
  Alcotest.(check int) "code_end counts the tail" 0x5000 (Binary.code_end b);
  Alcotest.(check int) "tail read" 0 (Binary.read64 b 0x4800);
  Alcotest.(check int) "last tail byte" 0 (Binary.read8 b 0x4FFF);
  Alcotest.(check int) "straddling read" 0x030201 (Binary.read64 b 0x4000);
  Alcotest.(check int) "straddling read past one byte" 0x0302 (Binary.read32 b 0x4001);
  let p = Binary.patch b [ (0x4100, le 2 0xBEEF) ] in
  let big x = Binary.section_exn x ".big" in
  Alcotest.(check int) "prefix grown to the write" 0x102
    (Bytes.length (big p).Section.data);
  Alcotest.(check int) "size unchanged" 0x1000 (Section.size (big p));
  Alcotest.(check int) "written" 0xBEEF (Binary.read16 p 0x4100 land 0xffff);
  Alcotest.(check int) "gap reads zero" 0 (Binary.read64 p 0x4008);
  Alcotest.(check int) "input prefix unchanged" 3 (Bytes.length (big b).Section.data);
  (match Binary.patch b [ (0x4FFF, "ab") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a write past the declared size must raise");
  (* Code reads its tail as zeros: an instruction whose last (zero) byte
     lies in the tail decodes whole, and an address in the tail decodes
     as a zero byte does. *)
  let mov = Encode.encode Arch.X86_64 (Insn.Mov (Reg.r0, Insn.Imm 5)) in
  let n = String.length mov in
  let code =
    mk_binary
      [
        Section.make ~name:".text" ~vaddr:0x1000 ~perm:Section.r_x ~size:0x100
          (Bytes.of_string (String.sub mov 0 (n - 1)));
      ]
  in
  Alcotest.(check bool) "straddling instruction" true
    (Binary.decode_at code 0x1000 = (Insn.Mov (Reg.r0, Insn.Imm 5), n));
  Alcotest.(check bool) "tail instruction" true
    (Binary.decode_at code 0x1080 = Encode.decode Arch.X86_64 "\000" ~pos:0);
  match
    Section.make ~name:".bad" ~vaddr:0 ~perm:Section.r_w ~size:2
      (Bytes.of_string "abc")
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a size below the stored bytes must raise"

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
         && Section.size x = Section.size y
         && Bytes.equal x.Section.data y.Section.data)
       a.Binary.sections b.Binary.sections

let test_binfile_roundtrip () =
  let roundtrip what bin =
    Alcotest.(check bool) (what ^ " roundtrip") true
      (binary_equal bin (Binfile.of_bytes (Binfile.to_bytes bin)))
  in
  List.iter
    (fun arch ->
      List.iter
        (fun pie ->
          let bin, _ =
            Icfg_codegen.Compile.compile ~pie arch Test_codegen.prog_exceptions
          in
          roundtrip (Printf.sprintf "%s pie=%b" (Arch.name arch) pie) bin)
        [ false; true ])
    Arch.all;
  (* A 34 MiB zero tail costs the container only its length. *)
  let bulk, _ =
    Icfg_codegen.Compile.compile ~bulk_data:(34 * 1024 * 1024) Arch.Ppc64le
      Test_codegen.prog_exceptions
  in
  roundtrip "ppc64le bulk" bulk;
  Alcotest.(check bool) "ppc64le bulk container is small" true
    (Bytes.length (Binfile.to_bytes bulk) < 64 * 1024)

let test_binfile_rejects_garbage () =
  (match Binfile.of_bytes (Bytes.of_string "NOTMAGIC") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad magic must be rejected");
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 Test_codegen.prog_loop in
  let good = Binfile.to_bytes bin in
  (match Binfile.of_bytes (Bytes.sub good 0 (Bytes.length good / 2)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncated input must be rejected");
  (* Crafted sections: the record is built directly, past [Section.make]'s
     checks, so the writer emits what a hostile client could send. *)
  let with_extra sections =
    Binfile.to_bytes (List.fold_left Binary.add_section bin sections)
  in
  let at vaddr size data =
    { (Section.make ~name:".x" ~vaddr ~perm:Section.r_w data) with Section.size }
  in
  let mib = 1024 * 1024 in
  List.iter
    (fun (what, sections) ->
      match Binfile.of_bytes (with_extra sections) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s must be rejected" what)
    [
      ("stored bytes over the size", [ at 0x40000000 2 (Bytes.of_string "abc") ]);
      ("a negative size", [ at 0x40000000 (-1) Bytes.empty ]);
      ("a 257 MiB declared image", [ at 0x40000000 (257 * mib) Bytes.empty ]);
      ( "declared sizes summing past 256 MiB",
        [ at 0x40000000 (200 * mib) Bytes.empty; at 0x50000000 (200 * mib) Bytes.empty ]
      );
      ("an overflowing size", [ at 0x40000000 max_int Bytes.empty ]);
    ];
  (* Up to the bound, a tail is accepted. *)
  let room = Binfile.max_image - Binary.loaded_size bin in
  let accepted = Binfile.of_bytes (with_extra [ at 0x40000000 room Bytes.empty ]) in
  Alcotest.(check int) "a tail up to the bound is accepted" room
    (Section.size (Binary.section_exn accepted ".x"))

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
      let module Runner = Icfg_harness.Runner in
      let orig = Runner.run_original bin in
      let r = Runner.run_rewritten { rw with Rewriter.rw_binary = loaded } in
      Alcotest.(check bool) "loaded binary halts" true
        (r.Runner.r_outcome = Vm.Halted);
      Alcotest.(check (list int)) "same output" orig.Runner.r_output
        r.Runner.r_output)

(* ------------------------------------------------------------------ *)
(* The strong test ([Runner.strong_test])                              *)
(* ------------------------------------------------------------------ *)

module Runner = Icfg_harness.Runner
module Rewriter = Icfg_core.Rewriter

(* An original run that crashes fails the test, and no counts are
   checked against it. *)
let test_verify_original_crash () =
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.X86_64 (Test_codegen.switch_prog Ir.Jt_plain)
  in
  let main = Option.get (Binary.symbol bin "main") in
  let bin = Binary.patch bin [ (main.Symbol.addr, String.make 4 '\000') ] in
  let t = Runner.strong_test bin in
  Alcotest.(check bool) "original crash reported" true
    (List.exists
       (function Runner.Original_crashed _ -> true | _ -> false)
       t.Runner.st_problems);
  Alcotest.(check int) "no counts checked" 0 t.Runner.st_blocks_checked

let same_run name (a : Runner.run) (b : Runner.run) =
  let key (r : Runner.run) =
    [ r.Runner.r_cycles; r.Runner.r_steps; r.Runner.r_traps;
      r.Runner.r_icache_misses ]
  in
  Alcotest.(check (list int))
    (name ^ ": cycles, steps, traps, icache misses")
    (key a) (key b)

let test_verify_ok () =
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.Aarch64 (Test_codegen.switch_prog Ir.Jt_plain)
  in
  let t = Runner.strong_test bin in
  Test_rewriter.no_problems "aarch64" t;
  Alcotest.(check bool) "blocks checked" true (t.Runner.st_blocks_checked > 10);
  Alcotest.(check bool) "blocks executed" true
    (t.Runner.st_blocks_executed > 0
    && t.Runner.st_blocks_executed <= t.Runner.st_blocks_checked)

let test_verify_detects_under_approximation () =
  (* Inject the catastrophic failure; the strong test must flag it. *)
  let bin, _ =
    Icfg_codegen.Compile.compile Arch.X86_64 (Test_codegen.switch_prog Ir.Jt_plain)
  in
  let fm =
    Icfg_analysis.Failure_model.with_bounds Icfg_analysis.Failure_model.ours
      (Icfg_analysis.Failure_model.Bound_under 2)
  in
  let t = Runner.strong_test ~fm bin in
  Alcotest.(check bool) "caught" true (t.Runner.st_problems <> [])

(* The strong test's two runs are the measured runs: the original equals
   [Runner.run_original] and the rewrite equals [Runner.run_rewritten] of
   the same options, icache misses included, PIE or not. *)
let test_verify_measured_config () =
  let prog =
    Icfg_workloads.Gen.build
      {
        Icfg_workloads.Gen.default_spec with
        Icfg_workloads.Gen.name = "quickstart";
        iters = 50;
      }
  in
  List.iter
    (fun pie ->
      let name = if pie then "pie" else "non-pie" in
      let bin, _ = Icfg_codegen.Compile.compile ~pie Arch.X86_64 prog in
      let t = Runner.strong_test bin in
      Test_rewriter.no_problems name t;
      let orig = Runner.run_original bin in
      Alcotest.(check bool) (name ^ ": icache modelled") true
        (orig.Runner.r_icache_misses > 0);
      same_run (name ^ " original") orig t.Runner.st_orig;
      let options =
        { Rewriter.default_options with Rewriter.payload = Rewriter.P_count }
      in
      same_run (name ^ " rewritten")
        (Runner.run_rewritten (Runner.rewrite ~options bin))
        t.Runner.st_rewritten)
    [ false; true ]

(* Partial instrumentation: with [only = Some [f]] the rewrite relocates f
   alone, and the strong test checks exactly f's blocks. *)
let test_verify_only () =
  List.iter
    (fun arch ->
      List.iter
        (fun pie ->
          let bin, _ =
            Icfg_codegen.Compile.compile ~pie arch
              (Test_codegen.switch_prog Ir.Jt_plain)
          in
          let p = Runner.parse bin in
          List.iter
            (fun f ->
              let name =
                Printf.sprintf "%s%s/%s" (Arch.name arch)
                  (if pie then "/pie" else "") f
              in
              let options =
                { Rewriter.default_options with Rewriter.only = Some [ f ] }
              in
              let t = Runner.strong_test ~options bin in
              Test_rewriter.no_problems name t;
              Alcotest.(check int) (name ^ ": one function instrumented") 1
                t.Runner.st_rewrite.Rewriter.rw_stats.Rewriter.s_funcs_instrumented;
              let fa = Option.get (Icfg_analysis.Parse.func p f) in
              Alcotest.(check int)
                (name ^ ": exactly f's blocks checked")
                (List.length
                   fa.Icfg_analysis.Parse.fa_cfg.Icfg_analysis.Cfg.blocks)
                t.Runner.st_blocks_checked;
              same_run (name ^ " original") (Runner.run_original bin)
                t.Runner.st_orig)
            [ "classify"; "main" ])
        [ false; true ])
    Arch.all

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
        Alcotest.test_case "patch leaves its input" `Quick test_patch_leaves_input;
        Alcotest.test_case "zero tail" `Quick test_zero_tail;
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
        Alcotest.test_case "original crash fails" `Quick
          test_verify_original_crash;
        Alcotest.test_case "runs are the measured runs" `Quick
          test_verify_measured_config;
        Alcotest.test_case "only: exactly f's blocks" `Quick test_verify_only;
      ] );
  ]
