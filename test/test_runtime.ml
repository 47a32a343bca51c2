(* Runtime-layer tests: VM instruction semantics, memory protection, traps,
   the icache model, RA-map properties, re-entrant calls, frame walking and
   the unwinder's corner cases. *)

open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Symbol = Icfg_obj.Symbol
module Ehframe = Icfg_obj.Ehframe
module Vm = Icfg_runtime.Vm
module Icache = Icfg_runtime.Icache
module Ra_map = Icfg_runtime.Runtime_lib.Ra_map

(* ------------------------------------------------------------------ *)
(* A tiny hand-assembled binary builder                                *)
(* ------------------------------------------------------------------ *)

let text_base = 0x400000

let make_binary ?(arch = Arch.X86_64) ?(extra_sections = []) ?eh_frame insns =
  let buf = Bytes.make 4096 '\000' in
  let pos = ref 0 in
  List.iter
    (fun i -> pos := !pos + Encode.encode_into arch buf ~pos:!pos i)
    insns;
  let text =
    Section.make ~name:".text" ~vaddr:text_base ~perm:Section.r_x
      (Bytes.sub buf 0 (max 16 !pos))
  in
  let data =
    Section.make ~name:".data" ~vaddr:0x500000 ~perm:Section.r_w
      (Bytes.make 256 '\000')
  in
  let rodata =
    Section.make ~name:".rodata" ~vaddr:0x501000 ~perm:Section.r_only
      (Bytes.init 64 (fun i -> Char.chr (i land 0xff)))
  in
  Binary.make ?eh_frame ~name:"hand" ~arch ~entry:text_base
    ~symbols:
      [ Symbol.make ~name:"f" ~addr:text_base ~size:!pos Symbol.Func ]
    ([ text; data; rodata ] @ extra_sections)

let run ?config ?routines insns =
  Vm.run ?config ?routines (make_binary insns)

let expect_output ?(arch = Arch.X86_64) name insns expected =
  let r = Vm.run (make_binary ~arch insns) in
  (match r.Vm.outcome with
  | Vm.Halted -> ()
  | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" name m);
  Alcotest.(check (list int)) name expected r.Vm.output

(* ------------------------------------------------------------------ *)
(* Instruction semantics                                               *)
(* ------------------------------------------------------------------ *)

let r0 = Reg.r0
let r1 = Reg.r1
let r3 = Reg.r3

let test_alu () =
  expect_output "mov/add"
    [ Mov (r0, Imm 5); Add (r0, Imm 7); Out r0; Halt ]
    [ 12 ];
  expect_output "sub/mul"
    [ Mov (r0, Imm 5); Sub (r0, Imm 9); Mul (r0, Imm 3); Out r0; Halt ]
    [ -12 ];
  expect_output "logic"
    [
      Mov (r0, Imm 0b1100);
      And_ (r0, Imm 0b1010);
      Or_ (r0, Imm 1);
      Xor (r0, Imm 0b11);
      Out r0;
      Halt;
    ]
    [ 0b1010 ];
  expect_output "shifts"
    [ Mov (r0, Imm 3); Shl (r0, 4); Shr (r0, 2); Out r0; Halt ]
    [ 12 ];
  expect_output "movhi/orlo"
    [ Movhi (r0, 2); Orlo (r0, 0xABC); Out r0; Halt ]
    [ (2 lsl 16) lor 0xABC ];
  expect_output "reg-to-reg"
    [ Mov (r0, Imm 9); Mov (r1, Reg r0); Add (r1, Reg r0); Out r1; Halt ]
    [ 18 ]

let test_memory () =
  expect_output "store/load via register base"
    [
      Mov (r1, Imm 0x500000);
      Mov (r0, Imm 1234);
      Store (W64, BReg r1, 16, r0);
      Mov (r0, Imm 0);
      Load (W64, r0, BReg r1, 16);
      Out r0;
      Halt;
    ]
    [ 1234 ];
  expect_output "narrow widths sign-extend"
    [
      Mov (r1, Imm 0x500000);
      Mov (r0, Imm 0xFF);
      Store (W8, BReg r1, 0, r0);
      Load (W8, r0, BReg r1, 0);
      Out r0;
      Mov (r0, Imm 0x8000);
      Store (W16, BReg r1, 8, r0);
      Load (W16, r0, BReg r1, 8);
      Out r0;
      Halt;
    ]
    [ -1; -32768 ];
  expect_output "stack push/pop via sp"
    [
      AddSp (-16);
      Mov (r0, Imm 77);
      Store (W64, BSp, 8, r0);
      Mov (r0, Imm 0);
      Load (W64, r0, BSp, 8);
      AddSp 16;
      Out r0;
      Halt;
    ]
    [ 77 ];
  expect_output "loadidx scaling"
    [
      Mov (r1, Imm 0x500000);
      Mov (r0, Imm 111);
      Store (W32, BReg r1, 12, r0);
      Mov (r3, Imm 3);
      LoadIdx (W32, r0, r1, r3, 4);
      Out r0;
      Halt;
    ]
    [ 111 ]

let test_control_flow () =
  (* jmp over a poison instruction *)
  let jlen = Encode.length Arch.X86_64 (Insn.Jmp 0) in
  let poison_len = Encode.length Arch.X86_64 (Insn.Out r0) in
  expect_output "jmp skips"
    [ Mov (r0, Imm 1); Jmp (jlen + poison_len); Out r0; Out r0; Halt ]
    [ 1 ];
  expect_output "jcc taken/not-taken"
    [
      Mov (r0, Imm 5);
      Cmp (r0, Imm 5);
      Jcc (Ne, 1000);
      Out r0;
      Cmp (r0, Imm 4);
      Jcc (Gt, Encode.length Arch.X86_64 (Insn.Jcc (Gt, 0)) + poison_len);
      Out r0;
      Out r0;
      Halt;
    ]
    [ 5; 5 ]

let test_write_protection () =
  let r =
    run [ Mov (r1, Imm 0x501000); Mov (r0, Imm 1); Store (W64, BReg r1, 0, r0); Halt ]
  in
  match r.Vm.outcome with
  | Vm.Crashed m ->
      Alcotest.(check bool) "mentions read-only" true
        (String.length m > 0)
  | Vm.Halted -> Alcotest.fail "expected write-protection crash"

(* Sections with zero tails: reads past the stored prefix return 0, a
   word may straddle the prefix and the tail, a write materialises the
   tail for that run only, and a read-only tail still refuses writes. *)
let test_zero_tail () =
  let open Insn in
  let big = 0x600000 and ro = 0x700000 in
  let bin insns =
    make_binary
      ~extra_sections:
        [
          Section.make ~name:".big" ~vaddr:big ~perm:Section.r_w ~size:0x10000
            (Bytes.of_string "\x11\x22\x33\x44");
          Section.make ~name:".zro" ~vaddr:ro ~perm:Section.r_only ~size:0x1000
            Bytes.empty;
        ]
      insns
  in
  let check name b expected =
    let r = Vm.run b in
    (match r.Vm.outcome with
    | Vm.Halted -> ()
    | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" name m);
    Alcotest.(check (list int)) name expected r.Vm.output
  in
  let load w off = [ Load (w, r0, BReg r1, off); Out r0 ] in
  check "tail reads return 0"
    (bin ([ Mov (r1, Imm big) ] @ load W64 0x8000 @ load W8 0xFFFF @ [ Halt ]))
    [ 0; 0 ];
  check "read-only tail reads 0"
    (bin ([ Mov (r1, Imm ro) ] @ load W64 0xFF8 @ [ Halt ]))
    [ 0 ];
  check "reads straddle prefix and tail"
    (bin ([ Mov (r1, Imm big) ] @ load W64 0 @ load W32 2 @ [ Halt ]))
    [ 0x44332211; 0x4433 ];
  check "a write straddles prefix and tail"
    (bin
       ([
          Mov (r1, Imm big);
          Movabs (r0, 0x0102030405060708);
          Store (W64, BReg r1, 2, r0);
        ]
       @ load W64 0 @ load W64 8 @ [ Halt ]))
    [ 0x0304050607082211; 0x0102 ];
  let b =
    bin
      ([ Mov (r1, Imm big) ]
      @ load W64 0x9000
      @ [ Mov (r0, Imm 99); Store (W64, BReg r1, 0x9000, r0) ]
      @ load W64 0x9000 @ load W64 0x9008 @ load W32 0 @ [ Halt ])
  in
  check "a tail write round-trips" b [ 0; 99; 0; 0x44332211 ];
  check "the next run starts from zero again" b [ 0; 99; 0; 0x44332211 ];
  let sec = Binary.section_exn b ".big" in
  Alcotest.(check int) "the binary's prefix is untouched" 4
    (Bytes.length sec.Section.data);
  Alcotest.(check int) "the binary still reads 0" 0 (Binary.read64 b (big + 0x9000));
  let ro_write =
    [ Mov (r1, Imm ro); Mov (r0, Imm 1); Store (W64, BReg r1, 0x10, r0); Halt ]
  in
  match (Vm.run (bin ro_write)).Vm.outcome with
  | Vm.Crashed m ->
      Alcotest.(check bool) "read-only tail write crashes" true
        (String.length m >= 10 && String.sub m 0 10 = "write to r")
  | Vm.Halted -> Alcotest.fail "expected write-protection crash in a tail"

let test_illegal_and_unmapped () =
  (match (run [ Illegal ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "illegal must crash");
  (match (run [ Mov (r0, Imm 0x10); IndJmp r0 ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "unmapped jump must crash");
  match (run [ Mov (r1, Imm 0x900000); Load (W64, r0, BReg r1, 0); Halt ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "unmapped read must crash"

let test_trap_dispatch () =
  (* A trap with a mapping continues at the target; without one it crashes. *)
  let arch = Arch.X86_64 in
  let tlen = Encode.length arch Insn.Trap in
  let olen = Encode.length arch (Insn.Out r0) in
  let target = text_base + Encode.length arch (Insn.Mov (r0, Imm 0)) + tlen + olen in
  let config = Vm.default_config () in
  Hashtbl.replace config.Vm.trap_map
    (text_base + Encode.length arch (Insn.Mov (r0, Imm 0)))
    target;
  let r =
    run ~config [ Mov (r0, Imm 3); Trap; Out r0 (* skipped *); Out r0; Halt ]
  in
  (match r.Vm.outcome with
  | Vm.Halted -> Alcotest.(check (list int)) "trap skipped poison" [ 3 ] r.Vm.output
  | Vm.Crashed m -> Alcotest.failf "crashed: %s" m);
  Alcotest.(check int) "trap counted" 1 r.Vm.trap_hits;
  Alcotest.(check bool) "trap is expensive" true
    (r.Vm.cycles > Vm.default_costs.Vm.trap);
  match (run [ Trap; Halt ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "unmapped trap must crash"

let test_callrt_unbound () =
  let bin = make_binary [ CallRt 0; Halt ] in
  let bin = { bin with Binary.dynsyms = [| "nosuch.routine" |] } in
  match (Vm.run bin).Vm.outcome with
  | Vm.Crashed m ->
      Alcotest.(check bool) "names the routine" true
        (String.length m > 10)
  | Vm.Halted -> Alcotest.fail "unbound callrt must crash"

let test_callrt_routine () =
  let bin = make_binary [ CallRt 0; Out r0; Halt ] in
  let bin = { bin with Binary.dynsyms = [| "test.set" |] } in
  let routine vm = Vm.set_reg vm r0 4242 in
  let r = Vm.run ~routines:[ ("test.set", routine) ] bin in
  Alcotest.(check (list int)) "routine ran" [ 4242 ] r.Vm.output

let test_timeout () =
  let config = { (Vm.default_config ()) with Vm.max_steps = 1000 } in
  let r = run ~config [ Jmp 0 ] in
  match r.Vm.outcome with
  | Vm.Crashed m -> Alcotest.(check bool) "timeout" true (String.length m > 0)
  | Vm.Halted -> Alcotest.fail "expected timeout"

let test_call_semantics_per_arch () =
  (* On x86-64 the return address goes through the stack; on the RISC
     flavours it goes through the link register. *)
  List.iter
    (fun arch ->
      let call_len = Encode.length arch (Insn.Call 0) in
      let out_len = Encode.length arch (Insn.Out r0) in
      let halt_len = Encode.length arch Insn.Halt in
      (* layout: call f; out; halt; f: mov r0; ret *)
      let insns =
        [
          Insn.Call (call_len + out_len + halt_len);
          Insn.Out r0;
          Insn.Halt;
          Insn.Mov (r0, Imm 31);
          Insn.Ret;
        ]
      in
      let r = Vm.run (make_binary ~arch insns) in
      match r.Vm.outcome with
      | Vm.Halted -> Alcotest.(check (list int)) (Arch.name arch) [ 31 ] r.Vm.output
      | Vm.Crashed m -> Alcotest.failf "%s: %s" (Arch.name arch) m)
    Arch.all

let test_mflr_mtlr_btar () =
  (* ppc64le special registers *)
  let arch = Arch.Ppc64le in
  let i n = n * 4 in
  (* 0: mov r0, 42; 1: lea-like via mtlr; ... *)
  let insns =
    [
      Insn.Mov (r0, Imm 42);
      (* target = insn 6 *)
      Insn.Movhi (r1, (text_base + i 6) asr 16);
      Insn.Orlo (r1, (text_base + i 6) land 0xffff);
      Insn.Mttar r1;
      Insn.Btar;
      Insn.Out r0 (* skipped *);
      Insn.Out r0;
      Insn.Halt;
    ]
  in
  let r = Vm.run (make_binary ~arch insns) in
  match r.Vm.outcome with
  | Vm.Halted -> Alcotest.(check (list int)) "btar" [ 42 ] r.Vm.output
  | Vm.Crashed m -> Alcotest.failf "crashed: %s" m

let test_profile_counts () =
  let arch = Arch.X86_64 in
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl text_base 0;
  let config = { (Vm.default_config ()) with Vm.profile = Some tbl } in
  let r = run ~config [ Mov (r0, Imm 1); Out r0; Halt ] in
  Alcotest.(check bool) "ran" true (r.Vm.outcome = Vm.Halted);
  Alcotest.(check int) "entry fetched once" 1 (Hashtbl.find tbl text_base);
  ignore arch

(* ------------------------------------------------------------------ *)
(* Icache                                                              *)
(* ------------------------------------------------------------------ *)

let test_icache_basic () =
  let c = Icache.create { Icache.line_bytes = 64; lines = 4; miss_cost = 10 } in
  Alcotest.(check bool) "first access misses" true (Icache.access c 0);
  Alcotest.(check bool) "same line hits" false (Icache.access c 63);
  Alcotest.(check bool) "next line misses" true (Icache.access c 64);
  (* conflict: 4 lines direct-mapped; line 0 and line 4 collide *)
  Alcotest.(check bool) "conflict evicts" true (Icache.access c (4 * 64));
  Alcotest.(check bool) "original line evicted" true (Icache.access c 0);
  Alcotest.(check int) "misses counted" 4 (Icache.misses c);
  Icache.reset c;
  Alcotest.(check int) "reset" 0 (Icache.misses c)

let test_icache_pow2 () =
  match Icache.create { Icache.line_bytes = 48; lines = 4; miss_cost = 1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-two must be rejected"

(* ------------------------------------------------------------------ *)
(* Ra_map                                                              *)
(* ------------------------------------------------------------------ *)

let test_ra_map_exact_and_floor () =
  let m = Ra_map.of_pairs [ (1000, 100); (2000, 200); (3000, 300) ] in
  Alcotest.(check int) "exact" 200 (Ra_map.translate m 2000);
  Alcotest.(check int) "floor to block start" 200 (Ra_map.translate m 2500);
  Alcotest.(check int) "below all passes through" 50 (Ra_map.translate m 50);
  Alcotest.(check int) "far above passes through" 5_000_000
    (Ra_map.translate m 5_000_000);
  let e = Ra_map.of_pairs ~exact_only:true [ (1000, 100) ] in
  Alcotest.(check int) "exact-only hit" 100 (Ra_map.translate e 1000);
  Alcotest.(check int) "exact-only miss passes through" 1001
    (Ra_map.translate e 1001)

let test_ra_map_encode_roundtrip () =
  let pairs = [ (0x404000, 0x400010); (0x404100, 0x400020); (0x405000, 0x400400) ] in
  let m = Ra_map.of_pairs pairs in
  let m' = Ra_map.decode (Ra_map.encode m) in
  Alcotest.(check (list (pair int int))) "roundtrip" (Ra_map.pairs m) (Ra_map.pairs m');
  let empty = Ra_map.of_pairs [] in
  Alcotest.(check int) "empty encodes to nothing" 0
    (Bytes.length (Ra_map.encode empty))

let ra_map_roundtrip_prop =
  QCheck2.Test.make ~count:200 ~name:"ra_map encode/decode roundtrip"
    QCheck2.Gen.(
      small_list (pair (int_range 0x400000 0x500000) (int_range 0x100000 0x200000)))
    (fun pairs ->
      (* de-duplicate keys: the map is a function *)
      let seen = Hashtbl.create 8 in
      let pairs =
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else (
              Hashtbl.add seen k ();
              true))
          pairs
      in
      let m = Ra_map.of_pairs pairs in
      Ra_map.pairs (Ra_map.decode (Ra_map.encode m)) = Ra_map.pairs m)

let ra_map_translate_prop =
  QCheck2.Test.make ~count:200 ~name:"ra_map translate is exact on keys"
    QCheck2.Gen.(small_list (pair (int_range 0 100000) (int_range 0 100000)))
    (fun pairs ->
      let seen = Hashtbl.create 8 in
      let pairs =
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else (
              Hashtbl.add seen k ();
              true))
          pairs
      in
      let m = Ra_map.of_pairs pairs in
      List.for_all (fun (k, v) -> Ra_map.translate m k = v) pairs)

(* ------------------------------------------------------------------ *)
(* Unwinding and frames                                                *)
(* ------------------------------------------------------------------ *)

let test_unwind_unhandled () =
  (* A throw with no FDE at all crashes with a clear message. *)
  let r = run [ Mov (r0, Imm 7); Throw ] in
  match r.Vm.outcome with
  | Vm.Crashed m -> Alcotest.(check bool) "message" true (String.length m > 4)
  | Vm.Halted -> Alcotest.fail "expected crash"

let test_unwind_same_frame_handler () =
  let arch = Arch.X86_64 in
  let mov_len = Encode.length arch (Insn.Mov (r0, Imm 7)) in
  let throw_len = Encode.length arch Insn.Throw in
  let handler = text_base + mov_len + throw_len in
  let eh =
    Ehframe.of_fdes
      [
        {
          Ehframe.func_start = text_base;
          func_end = text_base + 64;
          frame_size = 8;
          ra_loc = Ehframe.Ra_on_stack 0;
          landing_pads = [ (text_base, handler, handler) ];
        };
      ]
  in
  let bin =
    make_binary ~eh_frame:eh
      [ Mov (r0, Imm 7); Throw; (* handler: *) Add (r0, Imm 1); Out r0; Halt ]
  in
  let r = Vm.run bin in
  match r.Vm.outcome with
  | Vm.Halted ->
      Alcotest.(check (list int)) "handler got exception value" [ 8 ] r.Vm.output;
      Alcotest.(check bool) "unwind step counted" true (r.Vm.unwind_steps >= 1)
  | Vm.Crashed m -> Alcotest.failf "crashed: %s" m

let test_frames_walk () =
  (* Use a compiled program for realistic frames. *)
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 Test_codegen.go_prog in
  let seen = ref 0 in
  let probe vm =
    let frames = Vm.frames vm in
    seen := List.length frames
  in
  let routines = ("icfg.go_walk", probe) :: Icfg_runtime.Runtime_lib.standard () in
  (* our probe shadows the real walker? List.assoc takes the first match *)
  let r = Vm.run ~routines bin in
  Alcotest.(check bool) "ran" true (r.Vm.outcome = Vm.Halted);
  (* leaf_work <- mid <- main <- _start *)
  Alcotest.(check bool) (Printf.sprintf "at least 4 frames (got %d)" !seen) true (!seen >= 4)

(* ------------------------------------------------------------------ *)
(* call_function                                                       *)
(* ------------------------------------------------------------------ *)

let test_call_function_reentrant () =
  List.iter
    (fun arch ->
      (* Hijack the go-walk routine of the go program to exercise
         re-entrant execution: the routine calls the binary's own [mid]
         function while the outer run is suspended. The guard prevents
         recursion (mid's callee performs a traceback itself). *)
      let bin, _ = Icfg_codegen.Compile.compile arch Test_codegen.go_prog in
      let got = ref 0 in
      let busy = ref false in
      let probe vm =
        if not !busy then (
          busy := true;
          (match Vm.find_symbol vm "mid" with
          | Some addr -> got := Vm.call_function vm ~addr ~args:[ 5 ]
          | None -> Vm.abort vm "no mid");
          busy := false)
      in
      let r = Vm.run ~routines:[ ("icfg.go_walk", probe) ] bin in
      Alcotest.(check bool) (Arch.name arch ^ " ran") true (r.Vm.outcome = Vm.Halted);
      (* mid(5) = leaf_work(5) = 5 + 1 *)
      Alcotest.(check int) (Arch.name arch ^ " reentrant result") 6 !got)
    Arch.all

let suite =
  let qt = QCheck_alcotest.to_alcotest in
  [
    ( "runtime:vm",
      [
        Alcotest.test_case "alu" `Quick test_alu;
        Alcotest.test_case "memory" `Quick test_memory;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "write protection" `Quick test_write_protection;
        Alcotest.test_case "zero tail" `Quick test_zero_tail;
        Alcotest.test_case "illegal/unmapped" `Quick test_illegal_and_unmapped;
        Alcotest.test_case "trap dispatch" `Quick test_trap_dispatch;
        Alcotest.test_case "callrt unbound" `Quick test_callrt_unbound;
        Alcotest.test_case "callrt routine" `Quick test_callrt_routine;
        Alcotest.test_case "timeout" `Quick test_timeout;
        Alcotest.test_case "call per arch" `Quick test_call_semantics_per_arch;
        Alcotest.test_case "mttar/btar" `Quick test_mflr_mtlr_btar;
        Alcotest.test_case "profile" `Quick test_profile_counts;
      ] );
    ( "runtime:icache",
      [
        Alcotest.test_case "basic" `Quick test_icache_basic;
        Alcotest.test_case "power of two" `Quick test_icache_pow2;
      ] );
    ( "runtime:ra-map",
      [
        Alcotest.test_case "exact and floor" `Quick test_ra_map_exact_and_floor;
        Alcotest.test_case "encode roundtrip" `Quick test_ra_map_encode_roundtrip;
        qt ra_map_roundtrip_prop;
        qt ra_map_translate_prop;
      ] );
    ( "runtime:unwind",
      [
        Alcotest.test_case "unhandled" `Quick test_unwind_unhandled;
        Alcotest.test_case "same-frame handler" `Quick
          test_unwind_same_frame_handler;
        Alcotest.test_case "frames walk" `Quick test_frames_walk;
        Alcotest.test_case "reentrant call" `Quick test_call_function_reentrant;
      ] );
  ]
