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

let make_binary ?(arch = Arch.X86_64) ?(text_perm = Section.r_x)
    ?(extra_sections = []) ?eh_frame insns =
  let buf = Bytes.make 4096 '\000' in
  let pos = ref 0 in
  List.iter
    (fun i -> pos := !pos + Encode.encode_into arch buf ~pos:!pos i)
    insns;
  let text =
    Section.make ~name:".text" ~vaddr:text_base ~perm:text_perm
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

(* Lay out x86-64 code from [text_base]: [L name] marks a label, and
   [I f] is the instruction [f] builds from a resolver that maps a label
   to its displacement from that instruction. Branch lengths do not depend
   on their displacement, so one sizing pass places every label. *)
type item = L of string | I of ((string -> int) -> Insn.t)

let assemble items =
  let arch = Arch.X86_64 in
  let labels = Hashtbl.create 8 in
  ignore
    (List.fold_left
       (fun pc -> function
         | L l ->
             Hashtbl.replace labels l pc;
             pc
         | I f -> pc + Encode.length arch (f (fun _ -> 0)))
       text_base items);
  let _, rev =
    List.fold_left
      (fun (pc, acc) -> function
        | L _ -> (pc, acc)
        | I f ->
            let i = f (fun l -> Hashtbl.find labels l - pc) in
            (pc + Encode.length arch i, i :: acc))
      (text_base, []) items
  in
  List.rev rev

let i insn = I (fun _ -> insn)

let halted name (r : Vm.result) =
  match r.Vm.outcome with
  | Vm.Halted -> r.Vm.output
  | Vm.Crashed m -> Alcotest.failf "%s crashed: %s" name m

let expect_output ?(arch = Arch.X86_64) name insns expected =
  Alcotest.(check (list int)) name expected
    (halted name (Vm.run (make_binary ~arch insns)))

(* Everything a run counts, on one line: outcome, output, steps, cycles,
   icache misses and the non-zero cycle buckets. *)
let counts (r : Vm.result) =
  Printf.sprintf "%s; out [%s]; %d steps; %d cycles; %d misses; %s"
    (match r.Vm.outcome with Vm.Halted -> "halted" | Vm.Crashed m -> m)
    (String.concat "; " (List.map string_of_int r.Vm.output))
    r.Vm.steps r.Vm.cycles r.Vm.icache_misses
    (String.concat " "
       (List.filter_map
          (fun (b, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" b n))
          r.Vm.cycle_buckets))

(* A 4-line, 256-byte icache: lines 256 bytes apart conflict. *)
let icache_config () =
  {
    (Vm.default_config ()) with
    Vm.icache = Some { Icache.line_bytes = 64; lines = 4; miss_cost = 10 };
  }

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
    [ 5; 5 ];
  (* The entry block runs through the jcc, which jumps back into its
     middle, to the third instruction, twice. *)
  Alcotest.(check string) "jcc into a block that has run"
    "halted; out [1; 2; 3]; 15 steps; 17 cycles; 0 misses; base=15 branch=2"
    (counts
       (Vm.run
          (make_binary
             (assemble
                [
                  i (Mov (r0, Imm 0));
                  i (Mov (r1, Imm 5));
                  L "mid";
                  i (Add (r0, Imm 1));
                  i (Out r0);
                  i (Cmp (r0, Imm 3));
                  I (fun l -> Jcc (Lt, l "mid"));
                  i Halt;
                ]))))

let test_write_protection () =
  let r =
    run [ Mov (r1, Imm 0x501000); Mov (r0, Imm 1); Store (W64, BReg r1, 0, r0); Halt ]
  in
  (match r.Vm.outcome with
  | Vm.Crashed m ->
      Alcotest.(check bool) "mentions read-only" true
        (String.length m > 0)
  | Vm.Halted -> Alcotest.fail "expected write-protection crash");
  (* In a writable code section, a store over the next, not yet executed
     instruction replaces it: [out r0; halt] runs instead of [halt]. *)
  let arch = Arch.X86_64 in
  let patch = Bytes.make 8 '\000' in
  Bytes.blit_string
    (Encode.encode arch (Out r0) ^ Encode.encode arch Halt)
    0 patch 0 3;
  let mov = Insn.Mov (r0, Imm 42)
  and movabs = Insn.Movabs (r3, Int64.to_int (Bytes.get_int64_le patch 0))
  and store = Insn.Store (W64, BReg r1, 0, r3) in
  (* A mov's length does not depend on its immediate. *)
  let slot =
    List.fold_left
      (fun a i -> a + Encode.length arch i)
      text_base
      [ mov; Mov (r1, Imm 0); movabs; store ]
  in
  let code =
    [ mov; Mov (r1, Imm slot); movabs; store; Halt ]
    @ List.init 8 (fun _ -> Insn.Nop)
  in
  let rwx = { Section.read = true; write = true; execute = true } in
  Alcotest.(check string) "a store over the next instruction runs it"
    "halted; out [42]; 6 steps; 7 cycles; 0 misses; base=6 mem=1"
    (counts (Vm.run (make_binary ~text_perm:rwx code)))

(* Sections with zero tails: reads past the stored prefix return 0, a
   word may straddle the prefix and the tail, a write into the tail grows
   the stored window for that run only, and a read-only tail still
   refuses writes. *)
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

(* The Vm's fixed stack: the 1 MiB below 0x7E100000. *)
let stack_base = 0x7E000000
let stack_top = 0x7E100000

(* The stack stores only a window around the bytes the program wrote
   (DESIGN §16). Unwritten slots read 0 inside and outside the window, a
   word may straddle the window's low edge, a store below the stack's
   base is still unmapped, and every run starts from a zero stack. *)
let test_stack_window () =
  let open Insn in
  let r4 = Reg.r4 in
  Alcotest.(check (list int)) "unwritten slots read 0" [ 0; 0; 0 ]
    (halted "unwritten"
       (run
          [
            Load (W64, r0, BSp, -512);
            Out r0;
            Mov (r1, Imm 5);
            Store (W64, BSp, 0, r1);
            Load (W64, r0, BSp, 8);
            Out r0;
            Load (W64, r0, BSp, -4096);
            Out r0;
            Halt;
          ]));
  (* A first store far below the empty window puts its low edge at sp.
     The stored bytes are f8 87 06 05 04 03 02 01, so the narrow loads
     across the edge sign-extend. *)
  Alcotest.(check (list int)) "loads straddle the window's low edge"
    [ 0x050687F800000000; 0x87F80000 - 0x100000000; -0x800; 0x01020304050687F8 ]
    (halted "straddle"
       (run
          [
            AddSp (-65536);
            Movabs (r4, 0x01020304050687F8);
            Store (W64, BSp, 0, r4);
            Load (W64, r0, BSp, -4);
            Out r0;
            Load (W32, r0, BSp, -2);
            Out r0;
            Load (W16, r0, BSp, -1);
            Out r0;
            Load (W64, r0, BSp, 0);
            Out r0;
            Halt;
          ]));
  let below =
    run
      [
        AddSp (-(stack_top - stack_base));
        Mov (r1, Imm 1);
        Store (W64, BSp, 0, r1);
        Halt;
      ]
  in
  (match below.Vm.outcome with
  | Vm.Crashed m ->
      Alcotest.(check string) "a store below the stack is unmapped"
        (Printf.sprintf "write to unmapped address 0x%x" (stack_base - 64))
        m
  | Vm.Halted -> Alcotest.fail "a store below the stack must crash");
  let bin =
    make_binary
      [
        Load (W64, r0, BSp, -16);
        Out r0;
        Mov (r1, Imm 99);
        Store (W64, BSp, -16, r1);
        Load (W64, r0, BSp, -16);
        Out r0;
        Halt;
      ]
  in
  Alcotest.(check (list int)) "first run" [ 0; 99 ] (halted "first" (Vm.run bin));
  Alcotest.(check (list int)) "a second run starts from a zero stack" [ 0; 99 ]
    (halted "second" (Vm.run bin))

(* sum(n) = n + sum(n - 1), one 16-byte frame per level: 20,000 levels
   grow the stack window from empty past 256 KiB, and 70,000 levels
   overflow the 1 MiB stack. *)
let test_deep_recursion () =
  let open Insn in
  let sum n =
    make_binary
      (assemble
         [
           i (Mov (r0, Imm n));
           I (fun l -> Call (l "sum"));
           i (Out r0);
           i Halt;
           L "sum";
           i (Cmp (r0, Imm 0));
           I (fun l -> Jcc (Eq, l "base"));
           i (AddSp (-8));
           i (Store (W64, BSp, 0, r0));
           i (Sub (r0, Imm 1));
           I (fun l -> Call (l "sum"));
           i (Load (W64, r1, BSp, 0));
           i (Add (r0, Reg r1));
           i (AddSp 8);
           i Ret;
           L "base";
           i Ret;
         ])
  in
  Alcotest.(check (list int)) "sum 20000" [ 20000 * 20001 / 2 ]
    (halted "sum" (Vm.run (sum 20000)));
  match (Vm.run (sum 70000)).Vm.outcome with
  | Vm.Crashed m ->
      Alcotest.(check string) "overflow" "write to unmapped address"
        (String.sub m 0 (min (String.length m) 25))
  | Vm.Halted -> Alcotest.fail "70,000 frames must overflow the stack"

(* Steps allocate nothing: loading and the result allocate a few hundred
   words, so a run of 220,000 steps averages far below 0.05 minor words
   per step. *)
let test_steps_allocate_nothing () =
  let open Insn in
  let bin =
    make_binary
      (assemble
         [
           i (Mov (r3, Imm 0));
           i (Mov (r1, Imm 0x500000));
           L "loop";
           i (Store (W64, BReg r1, 8, r3));
           i (Load (W64, r0, BReg r1, 8));
           I (fun l -> Call (l "leaf"));
           i (Add (r3, Imm 1));
           i (Cmp (r3, Imm 20000));
           I (fun l -> Jcc (Lt, l "loop"));
           i (Out r3);
           i Halt;
           L "leaf";
           i (AddSp (-8));
           i (Store (W64, BSp, 0, r0));
           i (Load (W64, Reg.r4, BSp, 0));
           i (AddSp 8);
           i Ret;
         ])
  in
  let before = Gc.minor_words () in
  let r = Vm.run bin in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (list int)) "ran" [ 20000 ] (halted "loop" r);
  Alcotest.(check bool) "at least 100k steps" true (r.Vm.steps >= 100_000);
  let per_step = words /. float_of_int r.Vm.steps in
  if per_step >= 0.05 then
    Alcotest.failf "%.3f minor words per step (%.0f words, %d steps)" per_step
      words r.Vm.steps

(* Random loads and stores of every width in a data tail and in the
   stack read exactly what dense zero-initialised memory would. *)
let window_prop =
  let open Insn in
  let tail_base = 0x600000 and region = 0x4000 and prefix = "\x11\x22\x33\x44\x55" in
  let access =
    QCheck2.Gen.(
      let* store = bool in
      let* w = oneofl [ W8; W16; W32; W64 ] in
      let* on_stack = bool in
      (* Near the prefix and the top, across the first windows' edges
         (256 and 512 bytes), and anywhere. *)
      let* off =
        oneof
          [
            int_range 0 64;
            int_range 240 256;
            int_range 496 512;
            int_range 0 (region - 8);
          ]
      in
      let* v = int in
      return (store, w, on_stack, off, v))
  in
  (* Stack offsets count down from the top; the model's stack bytes are
     the region's [region] bytes below it. *)
  let model accesses =
    let tail = Bytes.make region '\000' and stack = Bytes.make region '\000' in
    Bytes.blit_string prefix 0 tail 0 (String.length prefix);
    List.filter_map
      (fun (store, w, on_stack, off, v) ->
        let b, pos = if on_stack then (stack, region - 8 - off) else (tail, off) in
        if store then (
          (match w with
          | W8 -> Bytes.set_uint8 b pos (v land 0xff)
          | W16 -> Bytes.set_uint16_le b pos (v land 0xffff)
          | W32 -> Bytes.set_int32_le b pos (Int32.of_int v)
          | W64 -> Bytes.set_int64_le b pos (Int64.of_int v));
          None)
        else
          Some
            (match w with
            | W8 -> Bytes.get_int8 b pos
            | W16 -> Bytes.get_int16_le b pos
            | W32 -> Int32.to_int (Bytes.get_int32_le b pos)
            | W64 -> Int64.to_int (Bytes.get_int64_le b pos)))
      accesses
  in
  let program accesses =
    [ Movabs (r1, tail_base); Movabs (r3, stack_top) ]
    @ List.concat_map
        (fun (store, w, on_stack, off, v) ->
          let base, d = if on_stack then (BReg r3, -8 - off) else (BReg r1, off) in
          if store then [ Movabs (r0, v); Store (w, base, d, r0) ]
          else [ Load (w, r0, base, d); Out r0 ])
        accesses
    @ [ Halt ]
  in
  QCheck2.Test.make ~count:200 ~name:"windowed memory reads as dense memory"
    QCheck2.Gen.(list_size (int_range 1 40) access)
    (fun accesses ->
      let bin =
        make_binary
          ~extra_sections:
            [
              Section.make ~name:".big" ~vaddr:tail_base ~perm:Section.r_w
                ~size:region (Bytes.of_string prefix);
            ]
          (program accesses)
      in
      let r = Vm.run bin in
      r.Vm.outcome = Vm.Halted && r.Vm.output = model accesses)

let test_illegal_and_unmapped () =
  (match (run [ Illegal ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "illegal must crash");
  (match (run [ Mov (r0, Imm 0x10); IndJmp r0 ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "unmapped jump must crash");
  (match (run [ Mov (r1, Imm 0x900000); Load (W64, r0, BReg r1, 0); Halt ]).Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "unmapped read must crash");
  (* A fetch fault after a taken branch: the faulting step counts and
     pays its icache probe, but no base cycle. *)
  let config = icache_config () in
  let r = Vm.run ~config (make_binary [ Mov (r1, Imm 0x500000); IndJmp r1 ]) in
  Alcotest.(check string) "execute data"
    "execute non-executable address 0x500000; out []; 3 steps; 24 cycles; 2 misses; base=2 indirect=2 icache=20"
    (counts r);
  let jcc = text_base + Encode.length Arch.X86_64 (Insn.Cmp (r0, Imm 0)) in
  let r =
    Vm.run ~config:(icache_config ())
      (make_binary [ Cmp (r0, Imm 0); Jcc (Eq, 0x80000) ])
  in
  Alcotest.(check string) "execute unmapped"
    (Printf.sprintf
       "execute unmapped address 0x%x; out []; 3 steps; 23 cycles; 2 misses; base=2 branch=1 icache=20"
       (jcc + 0x80000))
    (counts r)

(* A PIE relocation that lands in no segment ends the run as a crash,
   before the first step. *)
let test_relocation_outside () =
  let bin =
    Binary.make ~pie:true
      ~relocs:[ Icfg_obj.Reloc.relative ~offset:0x900000 ~addend:0 ]
      ~name:"reloc" ~arch:Arch.X86_64 ~entry:text_base ~symbols:[]
      [
        Section.make ~name:".text" ~vaddr:text_base ~perm:Section.r_x
          (Bytes.of_string (Encode.encode Arch.X86_64 Halt));
      ]
  in
  Alcotest.(check string) "crashed"
    "relocation outside any segment: 0x20900000; out []; 0 steps; 0 cycles; 0 misses; "
    (counts (Vm.run bin))

(* Every PIE binary loads at [Vm.pie_base], whoever runs it: a routine
   reads it as the load base under [Vm.default_config], and under
   [Runner]'s run a [Lea] reads its own address moved by it. A non-PIE
   binary loads at its link addresses. *)
let test_pie_base () =
  let pie insns = { (make_binary insns) with Binary.pie = true } in
  let base = ref (-1) in
  let bin = { (pie Insn.[ CallRt 0; Halt ]) with Binary.dynsyms = [| "test.base" |] } in
  ignore
    (halted "routine"
       (Vm.run ~routines:[ ("test.base", fun vm -> base := Vm.load_base vm) ] bin));
  Alcotest.(check int) "a routine reads Vm.pie_base" Vm.pie_base !base;
  let lea = Insn.[ Lea (r0, 0); Out r0; Halt ] in
  let runner bin = halted "runner" (Icfg_harness.Runner.original_vm bin) in
  Alcotest.(check (list int)) "Runner.original_vm loads at Vm.pie_base"
    [ Vm.pie_base + text_base ] (runner (pie lea));
  Alcotest.(check (list int)) "a non-PIE binary loads at its link addresses"
    [ text_base ] (runner (make_binary lea))

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
  Alcotest.(check int) "trap costs 4,000 cycles" 4000
    (List.assoc "trap" r.Vm.cycle_buckets);
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
  Alcotest.(check string) "timeout"
    "timeout: max steps exceeded; out []; 1000 steps; 2000 cycles; 0 misses; base=1000 branch=1000"
    (counts r);
  (* A limit inside a straight-line block falls on the same step: the
     entry block runs 6 steps, the loop's block 5, and the limit of 14
     stops the second pass through the loop after its third step. *)
  let config = { (Vm.default_config ()) with Vm.max_steps = 14 } in
  let r =
    Vm.run ~config
      (make_binary
         (assemble
            [
              i (Mov (r0, Imm 0));
              L "top";
              i (Add (r0, Imm 1));
              i (Out r0);
              i (Add (r0, Imm 1));
              i (Out r0);
              I (fun l -> Jmp (l "top"));
            ]))
  in
  Alcotest.(check string) "limit inside a block"
    "timeout: max steps exceeded; out [1; 2; 3; 4; 5]; 14 steps; 16 cycles; 0 misses; base=14 branch=2"
    (counts r)

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
  (* A key in the middle of a loop's block counts every pass, and an
     unprofiled address stays absent. *)
  let mov = Insn.Mov (Reg.r3, Imm 0) and add = Insn.Add (Reg.r3, Imm 1) in
  let cmp = text_base + Encode.length arch mov + Encode.length arch add in
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl cmp 0;
  let config = { (Vm.default_config ()) with Vm.profile = Some tbl } in
  let r =
    Vm.run ~config
      (make_binary
         (assemble
            [
              i mov;
              L "loop";
              i add;
              i (Cmp (Reg.r3, Imm 5));
              I (fun l -> Jcc (Lt, l "loop"));
              i (Out Reg.r3);
              i Halt;
            ]))
  in
  Alcotest.(check string) "ran the loop"
    "halted; out [5]; 18 steps; 22 cycles; 0 misses; base=18 branch=4"
    (counts r);
  Alcotest.(check (list (pair int int))) "mid-block key" [ (cmp, 5) ]
    (List.of_seq (Hashtbl.to_seq tbl))

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

(* Every step accesses the icache at its own address: an instruction
   straddling two lines touches only the first. *)
let test_icache_vm_lines () =
  let check name expected items =
    let r = Vm.run ~config:(icache_config ()) (make_binary (assemble items)) in
    Alcotest.(check string) name expected (counts r);
    Alcotest.(check int) (name ^ ": one access per step") r.Vm.steps
      r.Vm.icache_accesses
  in
  (* Ten 10-byte movabs per pass, five passes: several straddle a line. *)
  check "straddling lines"
    "halted; out [5]; 68 steps; 92 cycles; 2 misses; base=68 branch=4 icache=20"
    ([ i (Mov (r3, Imm 0)); L "loop" ]
    @ List.init 10 (fun k -> i (Movabs (r0, k)))
    @ [
        i (Add (r3, Imm 1));
        i (Cmp (r3, Imm 5));
        I (fun l -> Jcc (Lt, l "loop"));
        i (Out r3);
        i Halt;
      ]);
  (* A loop calling a function 256 bytes after it: both lines share one
     set, so every call and every return misses. *)
  let main =
    [
      Insn.Mov (r3, Imm 0);
      Call 0;
      Add (r3, Imm 1);
      Cmp (r3, Imm 4);
      Jcc (Lt, 0);
      Out r3;
      Halt;
    ]
  in
  let pad =
    256 - List.fold_left (fun n x -> n + Encode.length Arch.X86_64 x) 0 main
  in
  check "conflicting lines"
    "halted; out [4]; 23 steps; 124 cycles; 9 misses; base=23 branch=11 icache=90"
    ([
       i (Mov (r3, Imm 0));
       L "loop";
       I (fun l -> Call (l "f"));
       i (Add (r3, Imm 1));
       i (Cmp (r3, Imm 4));
       I (fun l -> Jcc (Lt, l "loop"));
       i (Out r3);
       i Halt;
     ]
    @ List.init pad (fun _ -> i Nop)
    @ [ L "f"; i Ret ])

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

(* A call with more arguments than argument registers is refused before
   any register is written, so the caller's r0 and r1 survive it. *)
let test_call_function_too_many_args () =
  let bin =
    make_binary [ Mov (r0, Imm 7); Mov (r1, Imm 8); CallRt 0; Out r0; Out r1; Halt ]
  in
  let bin = { bin with Binary.dynsyms = [| "test.call5" |] } in
  let refused = ref false in
  let routine vm =
    match Vm.call_function vm ~addr:text_base ~args:[ 1; 2; 3; 4; 5 ] with
    | _ -> ()
    | exception Invalid_argument _ -> refused := true
  in
  let r = Vm.run ~routines:[ ("test.call5", routine) ] bin in
  Alcotest.(check bool) "refused" true !refused;
  Alcotest.(check (list int)) "registers unchanged" [ 7; 8 ]
    (halted "call5" r)

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
        Alcotest.test_case "stack window" `Quick test_stack_window;
        Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
        Alcotest.test_case "steps allocate nothing" `Quick
          test_steps_allocate_nothing;
        qt window_prop;
        Alcotest.test_case "illegal/unmapped" `Quick test_illegal_and_unmapped;
        Alcotest.test_case "relocation outside any segment" `Quick
          test_relocation_outside;
        Alcotest.test_case "one PIE base" `Quick test_pie_base;
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
        Alcotest.test_case "vm lines" `Quick test_icache_vm_lines;
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
        Alcotest.test_case "call with too many arguments" `Quick
          test_call_function_too_many_args;
      ] );
  ]
