(* Assembler tests: layout/encode two-pass behaviour, label resolution,
   pseudo-instruction expansion, data expressions and range checks. *)

open Icfg_isa
open Icfg_codegen

let assemble ?(arch = Arch.X86_64) ?(pie = false) ?(toc = 0) ?(base = 0x400000)
    items =
  Asm.assemble arch ~pie ~toc ~base items

let decode_stream arch (r : Asm.result) =
  let s = Bytes.to_string r.Asm.data in
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let i, n = Encode.decode arch s ~pos in
      go (pos + n) ((r.Asm.base + pos, i) :: acc)
  in
  go 0 []

let test_forward_and_backward_labels () =
  List.iter
    (fun arch ->
      let r =
        assemble ~arch
          [
            Asm.Label "start";
            Asm.Jmp_to "end";
            Asm.Label "mid";
            Asm.Insn Insn.Nop;
            Asm.Jmp_to "start";
            Asm.Label "end";
            Asm.Insn Insn.Halt;
          ]
      in
      let labels = r.Asm.labels in
      let addr l = Asm.label_exn labels l in
      Alcotest.(check int) "start at base" 0x400000 (addr "start");
      Alcotest.(check bool) "mid after jmp" true (addr "mid" > addr "start");
      let stream = decode_stream arch r in
      (* first insn is a jmp targeting 'end' *)
      match stream with
      | (a0, Insn.Jmp d) :: _ ->
          Alcotest.(check int) (Arch.name arch ^ " forward target")
            (addr "end") (a0 + d)
      | _ -> Alcotest.fail "expected jmp first")
    Arch.all

let test_duplicate_label_rejected () =
  match assemble [ Asm.Label "x"; Asm.Label "x" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate label must be rejected"

let test_undefined_label () =
  match assemble [ Asm.Jmp_to "nowhere" ] with
  | exception Asm.Undefined_label l -> Alcotest.(check string) "name" "nowhere" l
  | _ -> Alcotest.fail "undefined label must raise"

let test_align_and_padding () =
  List.iter
    (fun arch ->
      let r =
        assemble ~arch
          [
            Asm.Insn Insn.Nop;
            Asm.Align (16, `Nop);
            Asm.Label "aligned";
            Asm.Insn Insn.Halt;
          ]
      in
      let a = Asm.label_exn r.Asm.labels "aligned" in
      Alcotest.(check int) (Arch.name arch ^ " aligned") 0 (a mod 16);
      (* the padding bytes decode as nops (possibly with a zero tail) *)
      let nops =
        List.filter (fun (_, i) -> i = Insn.Nop) (decode_stream arch r)
      in
      Alcotest.(check bool) "has nop padding" true (List.length nops >= 2))
    Arch.all

let test_data_expressions () =
  let r =
    assemble
      [
        Asm.Label "a";
        Asm.Insn Insn.Nop;
        Asm.Label "b";
        Asm.Align (8, `Zero);
        Asm.Label "tbl";
        Asm.Data (Insn.W32, Asm.Diff ("b", "a", 1), `No_reloc);
        Asm.Data (Insn.W64, Asm.Addr "a", `No_reloc);
        Asm.Data (Insn.W16, Asm.Diff_const ("b", 0x400000, 1), `No_reloc);
        Asm.Data (Insn.W8, Asm.Const (-3), `No_reloc);
      ]
  in
  let tbl = Asm.label_exn r.Asm.labels "tbl" - r.Asm.base in
  let b = r.Asm.data in
  Alcotest.(check int32) "diff" 1l (Bytes.get_int32_le b tbl);
  Alcotest.(check int) "addr" 0x400000
    (Int64.to_int (Bytes.get_int64_le b (tbl + 4)));
  Alcotest.(check int) "diff const" 1 (Bytes.get_uint16_le b (tbl + 12));
  Alcotest.(check int) "signed byte" 0xFD (Bytes.get_uint8 b (tbl + 14))

let test_data_range_check () =
  match
    assemble
      [
        Asm.Label "a";
        Asm.Space 1024;
        Asm.Label "b";
        Asm.Data (Insn.W8, Asm.Diff ("b", "a", 1), `No_reloc);
      ]
  with
  | exception Encode.Not_encodable _ -> ()
  | _ -> Alcotest.fail "1024 must not fit in a byte"

let test_pie_relocs () =
  let items =
    [
      Asm.Label "f";
      Asm.Insn Insn.Nop;
      Asm.Data (Insn.W64, Asm.Addr "f", `Reloc);
      Asm.Data (Insn.W64, Asm.Addr "f", `No_reloc);
    ]
  in
  let pie = assemble ~pie:true items in
  let nopie = assemble ~pie:false items in
  Alcotest.(check int) "pie emits one reloc" 1 (List.length pie.Asm.relocs);
  Alcotest.(check int) "non-pie emits none" 0 (List.length nopie.Asm.relocs);
  match pie.Asm.relocs with
  | [ r ] ->
      Alcotest.(check int) "addend is target" 0x400000 r.Icfg_obj.Reloc.addend
  | _ -> Alcotest.fail "one reloc"

let test_mater_const () =
  (* Mater_const leaves the absolute constant in the register on every
     architecture, PIE or not. *)
  List.iter
    (fun (arch, pie) ->
      let target = 0x478654 in
      let toc = 0x600000 in
      let r =
        assemble ~arch ~pie ~toc
          [ Asm.Mater_const (Reg.r5, target); Asm.Insn (Insn.Out Reg.r5); Asm.Insn Insn.Halt ]
      in
      (* execute it *)
      let text =
        Icfg_obj.Section.make ~name:".text" ~vaddr:r.Asm.base
          ~perm:Icfg_obj.Section.r_x r.Asm.data
      in
      let bin =
        Icfg_obj.Binary.make ~pie ~toc_base:toc ~name:"m" ~arch
          ~entry:r.Asm.base
          ~symbols:
            [ Icfg_obj.Symbol.make ~name:"f" ~addr:r.Asm.base ~size:64 Icfg_obj.Symbol.Func ]
          [
            text;
            Icfg_obj.Section.make ~name:".toc" ~vaddr:toc
              ~perm:Icfg_obj.Section.r_only (Bytes.make 16 '\000');
          ]
      in
      let lb = if pie then Icfg_runtime.Vm.pie_base else 0 in
      let res = Icfg_runtime.Vm.run bin in
      match res.Icfg_runtime.Vm.outcome with
      | Icfg_runtime.Vm.Halted ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s pie=%b" (Arch.name arch) pie)
            [ target + lb ] res.Icfg_runtime.Vm.output
      | Icfg_runtime.Vm.Crashed m ->
          Alcotest.failf "%s pie=%b crashed: %s" (Arch.name arch) pie m)
    [
      (Arch.X86_64, false);
      (Arch.X86_64, true);
      (Arch.Ppc64le, false);
      (Arch.Ppc64le, true);
      (Arch.Aarch64, false);
      (Arch.Aarch64, true);
    ]

let test_abs_branches () =
  List.iter
    (fun arch ->
      let r =
        assemble ~arch
          [
            Asm.Jmp_abs 0x400010;
            Asm.Label "pad";
            Asm.Align (16, `Nop);
            Asm.Label "t";
            Asm.Insn Insn.Halt;
          ]
      in
      match decode_stream arch r with
      | (a, Insn.Jmp d) :: _ ->
          Alcotest.(check int) (Arch.name arch) 0x400010 (a + d)
      | _ -> Alcotest.fail "expected jmp")
    Arch.all

let test_raw_and_space () =
  let r =
    assemble
      [ Asm.Raw "HELLO"; Asm.Space 3; Asm.Label "after"; Asm.Insn Insn.Halt ]
  in
  Alcotest.(check string) "raw bytes" "HELLO"
    (Bytes.sub_string r.Asm.data 0 5);
  Alcotest.(check int) "space" (0x400000 + 8) (Asm.label_exn r.Asm.labels "after")

(* ------------------------------------------------------------------ *)
(* Pinned-address incremental layout                                   *)
(* ------------------------------------------------------------------ *)

let seg id body = (id, [ Asm.Label (Printf.sprintf "s%d" id); Asm.Raw body ])

let pin ?prev segs =
  let labels = Hashtbl.create 16 in
  let r =
    Asm.layout_pinned Arch.X86_64 ~pie:false ~labels ~base:0x400000 ?prev segs
  in
  (r, labels)

let bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let base_segs = [ seg 0 "AAAA"; seg 1 "BB"; seg 2 "CCCCCCCC" ]

(* Without a previous run, layout_pinned is exactly [layout] over the
   concatenated segment items. *)
let test_pinned_no_prev () =
  let r, labels = pin base_segs in
  let plain = Hashtbl.create 16 in
  let lay =
    Asm.layout Arch.X86_64 ~pie:false ~labels:plain ~base:0x400000
      (List.concat_map snd base_segs)
  in
  Alcotest.(check bool) "layout identical to Asm.layout" true
    (r.Asm.p_layout = lay);
  Alcotest.(check bool) "labels identical" true
    (bindings labels = bindings plain);
  Alcotest.(check int) "nothing pinned" 0 r.Asm.p_pinned;
  Alcotest.(check int) "all segments placed" 3 r.Asm.p_moved;
  (* Duplicate labels are rejected like in [layout]. *)
  match pin [ (0, [ Asm.Label "x" ]); (1, [ Asm.Label "x" ]) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate label must be rejected"

(* An unchanged run pins everything; a same-length content edit re-fits
   the dirty segment into its own hole, so every address survives. *)
let test_pinned_stable () =
  let r1, l1 = pin base_segs in
  let r2, l2 = pin ~prev:(Lazy.force r1.Asm.p_recs) base_segs in
  Alcotest.(check bool) "warm layout identical" true
    (r2.Asm.p_layout = r1.Asm.p_layout);
  Alcotest.(check bool) "warm labels identical" true
    (bindings l1 = bindings l2);
  Alcotest.(check int) "all pinned" 3 r2.Asm.p_pinned;
  Alcotest.(check int) "none moved" 0 r2.Asm.p_moved;
  let edited = [ seg 0 "AAAA"; seg 1 "ZZ"; seg 2 "CCCCCCCC" ] in
  let r3, l3 = pin ~prev:(Lazy.force r1.Asm.p_recs) edited in
  Alcotest.(check bool) "same-length edit keeps every address" true
    (bindings l1 = bindings l3);
  Alcotest.(check int) "two pinned" 2 r3.Asm.p_pinned;
  Alcotest.(check int) "one re-fitted" 1 r3.Asm.p_moved;
  Alcotest.(check int) "extent unchanged" r1.Asm.p_layout.Asm.l_end
    r3.Asm.p_layout.Asm.l_end

(* A grown segment no longer fits its hole and spills to the tail; the
   others stay pinned, and encoding the chunk list zero-fills the hole. *)
let test_pinned_growth () =
  let r1, l1 = pin base_segs in
  let grown = "BBBBBBBBBBBB" in
  let edited = [ seg 0 "AAAA"; seg 1 grown; seg 2 "CCCCCCCC" ] in
  let r, labels = pin ~prev:(Lazy.force r1.Asm.p_recs) edited in
  Alcotest.(check int) "two pinned" 2 r.Asm.p_pinned;
  Alcotest.(check int) "one moved" 1 r.Asm.p_moved;
  let addr tbl s = Asm.label_exn tbl s in
  Alcotest.(check int) "s0 pinned" (addr l1 "s0") (addr labels "s0");
  Alcotest.(check int) "s2 pinned" (addr l1 "s2") (addr labels "s2");
  Alcotest.(check bool) "s1 spilled past the old end" true
    (addr labels "s1" >= r1.Asm.p_layout.Asm.l_end);
  let lay = r.Asm.p_layout in
  Alcotest.(check int) "tail grew by the spilled segment"
    (r1.Asm.p_layout.Asm.l_end + String.length grown)
    lay.Asm.l_end;
  let bytes, relocs =
    Asm.encode_chunks Arch.X86_64 ~pie:false ~toc:0 ~labels lay r.Asm.p_chunks
  in
  Alcotest.(check (list pass)) "no relocs" [] relocs;
  let expect = Bytes.make (lay.Asm.l_end - lay.Asm.l_base) '\000' in
  List.iter
    (fun (s, body) ->
      Bytes.blit_string body 0 expect (addr labels s - lay.Asm.l_base)
        (String.length body))
    [ ("s0", "AAAA"); ("s1", grown); ("s2", "CCCCCCCC") ];
  Alcotest.(check string) "holes stay zero-filled" (Bytes.to_string expect)
    (Bytes.to_string bytes)

(* Layout sizes must agree with encoded sizes for every item kind. *)
let layout_matches_encoding =
  QCheck2.Test.make ~count:300 ~name:"asm layout size = encoded size"
    QCheck2.Gen.(
      triple (oneofl Arch.all)
        (small_list
           (oneofl
              [
                Asm.Insn Insn.Nop;
                Asm.Insn (Insn.Mov (Reg.r1, Imm 5));
                Asm.Insn Insn.Ret;
                Asm.Jmp_to "l";
                Asm.Jcc_to (Insn.Eq, "l");
                Asm.Call_to "l";
                Asm.Mater_const (Reg.r2, 0x404040);
              ]))
        (small_list
           (oneofl
              [
                Asm.Data (Insn.W32, Asm.Const 7, `No_reloc);
                Asm.Raw "xy";
                Asm.Space 5;
              ])))
    (fun (arch, code, data) ->
      (* code first (instruction-aligned), then data — like a real layout *)
      let items =
        (Asm.Label "l" :: code) @ [ Asm.Insn Insn.Halt ] @ data
      in
      let r = assemble ~arch items in
      (* encoding filled exactly the laid-out bytes: re-layout and compare *)
      let labels2 = Hashtbl.create 8 in
      let lay = Asm.layout arch ~pie:false ~labels:labels2 ~base:0x400000 items in
      lay.Asm.l_end - lay.Asm.l_base = Bytes.length r.Asm.data)

let suite =
  [
    ( "asm",
      [
        Alcotest.test_case "labels fwd/bwd" `Quick test_forward_and_backward_labels;
        Alcotest.test_case "duplicate label" `Quick test_duplicate_label_rejected;
        Alcotest.test_case "undefined label" `Quick test_undefined_label;
        Alcotest.test_case "align+padding" `Quick test_align_and_padding;
        Alcotest.test_case "data expressions" `Quick test_data_expressions;
        Alcotest.test_case "data range check" `Quick test_data_range_check;
        Alcotest.test_case "pie relocs" `Quick test_pie_relocs;
        Alcotest.test_case "mater const (exec)" `Quick test_mater_const;
        Alcotest.test_case "absolute branches" `Quick test_abs_branches;
        Alcotest.test_case "raw/space" `Quick test_raw_and_space;
        Alcotest.test_case "pinned layout: no prev = layout" `Quick
          test_pinned_no_prev;
        Alcotest.test_case "pinned layout: stable + same-length edit" `Quick
          test_pinned_stable;
        Alcotest.test_case "pinned layout: growth spills to tail" `Quick
          test_pinned_growth;
        QCheck_alcotest.to_alcotest layout_matches_encoding;
      ] );
  ]
