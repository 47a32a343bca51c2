(* Tests for the ISA substrate: encoding round-trips, instruction lengths,
   branch ranges, and the Table 2 trampoline catalogue. *)

open Icfg_isa

let arch_cases f = List.map (fun a -> (a, f a)) Arch.all

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck2.Gen.map Reg.make (QCheck2.Gen.int_bound 15)

let gen_operand =
  QCheck2.Gen.(
    oneof
      [
        map (fun r -> Insn.Reg r) gen_reg;
        map (fun n -> Insn.Imm n) (int_range (-30000) 30000);
      ])

let gen_base =
  QCheck2.Gen.(
    oneof [ map (fun r -> Insn.BReg r) gen_reg; return Insn.BSp ])

let gen_width =
  QCheck2.Gen.oneofl [ Insn.W8; Insn.W16; Insn.W32; Insn.W64 ]

let gen_cond =
  QCheck2.Gen.oneofl [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ]

let gen_disp14 =
  (* 4-byte aligned displacement fitting the RISC conditional field *)
  QCheck2.Gen.map (fun n -> n * 4) (QCheck2.Gen.int_range (-8000) 7999)

(* Instructions encodable on every architecture. *)
let gen_common_insn =
  let open QCheck2.Gen in
  let open Insn in
  oneof
    [
      return Nop;
      return Halt;
      return Trap;
      return Ret;
      return Throw;
      map (fun r -> Out r) gen_reg;
      map2 (fun r o -> Mov (r, o)) gen_reg gen_operand;
      map2 (fun r n -> Movhi (r, n)) gen_reg (int_range (-30000) 30000);
      map2 (fun r n -> Orlo (r, n)) gen_reg (int_bound 65535);
      map2 (fun r o -> Add (r, o)) gen_reg gen_operand;
      map2 (fun r o -> Sub (r, o)) gen_reg gen_operand;
      map2 (fun r o -> Mul (r, o)) gen_reg gen_operand;
      map2 (fun r o -> And_ (r, o)) gen_reg gen_operand;
      map2 (fun r o -> Or_ (r, o)) gen_reg gen_operand;
      map2 (fun r o -> Xor (r, o)) gen_reg gen_operand;
      map2 (fun r o -> Cmp (r, o)) gen_reg gen_operand;
      map2 (fun r n -> Shl (r, n)) gen_reg (int_bound 63);
      map2 (fun r n -> Shr (r, n)) gen_reg (int_bound 63);
      (let* w = gen_width and* r = gen_reg and* b = gen_base and* d = gen_disp14 in
       return (Load (w, r, b, d / 4)));
      (let* w = gen_width and* r = gen_reg and* b = gen_base and* d = gen_disp14 in
       return (Store (w, b, d / 4, r)));
      (let* w = gen_width
       and* rd = gen_reg
       and* rb = gen_reg
       and* ri = gen_reg
       and* s = oneofl [ 1; 2; 4; 8 ] in
       return (LoadIdx (w, rd, rb, ri, s)));
      map2 (fun r d -> Lea (r, d)) gen_reg gen_disp14;
      map (fun n -> AddSp (n * 4)) (int_range (-80000) 80000);
      map (fun d -> Jmp d) gen_disp14;
      map2 (fun c d -> Jcc (c, d)) gen_cond gen_disp14;
      map (fun d -> Call d) gen_disp14;
      map (fun r -> IndJmp r) gen_reg;
      map (fun r -> IndCall r) gen_reg;
      (let* b = gen_base and* d = gen_disp14 in
       return (IndCallMem (b, d / 4)));
      map (fun n -> CallRt n) (int_bound 65535);
      map (fun r -> Mflr r) gen_reg;
      map (fun r -> Mtlr r) gen_reg;
    ]

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)
(* ------------------------------------------------------------------ *)

let riscy arch insn =
  (* Mflr/Mtlr only exist on the link-register architectures. *)
  match (arch, insn) with
  | Arch.X86_64, (Insn.Mflr _ | Insn.Mtlr _) -> false
  | _ -> true

let roundtrip_test arch =
  QCheck2.Test.make ~count:2000
    ~name:(Printf.sprintf "encode/decode roundtrip (%s)" (Arch.name arch))
    gen_common_insn (fun insn ->
      QCheck2.assume (riscy arch insn);
      let s = Encode.encode arch insn in
      let decoded, n = Encode.decode arch s ~pos:0 in
      n = String.length s && Insn.equal decoded insn)

let length_matches_encode arch =
  QCheck2.Test.make ~count:2000
    ~name:(Printf.sprintf "length agrees with encode (%s)" (Arch.name arch))
    gen_common_insn (fun insn ->
      QCheck2.assume (riscy arch insn);
      Encode.length arch insn = String.length (Encode.encode arch insn))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_x86_lengths () =
  let a = Arch.X86_64 in
  Alcotest.(check int) "nop" 1 (Encode.length a Insn.Nop);
  Alcotest.(check int) "ret" 1 (Encode.length a Insn.Ret);
  Alcotest.(check int) "trap" 1 (Encode.length a Insn.Trap);
  Alcotest.(check int) "jmp near" 5 (Encode.length a (Insn.Jmp 1000));
  Alcotest.(check int) "call" 5 (Encode.length a (Insn.Call 1000));
  Alcotest.(check int) "movabs" 10 (Encode.length a (Insn.Movabs (Reg.r0, 1)));
  Alcotest.(check int) "short jmp" 2
    (String.length (Encode.encode_jmp a ~wide:false 100))

let test_fixed_lengths () =
  List.iter
    (fun a ->
      List.iter
        (fun i -> Alcotest.(check int) (Insn.to_string i) 4 (Encode.length a i))
        [
          Insn.Nop;
          Insn.Ret;
          Insn.Trap;
          Insn.Jmp 4096;
          Insn.Call (-4096);
          Insn.Mov (Reg.r3, Imm 17);
        ])
    [ Arch.Ppc64le; Arch.Aarch64 ]

let test_branch_ranges () =
  (* ppc64le b reaches +/-32MiB; aarch64 reaches +/-128MiB. *)
  let mib = 1024 * 1024 in
  Alcotest.(check bool) "ppc 32M ok" true
    (Encode.jmp_fits Arch.Ppc64le ~wide:false ((32 * mib) - 4));
  Alcotest.(check bool) "ppc 32M+4 too far" false
    (Encode.jmp_fits Arch.Ppc64le ~wide:false (32 * mib));
  Alcotest.(check bool) "aarch64 128M ok" true
    (Encode.jmp_fits Arch.Aarch64 ~wide:false ((128 * mib) - 4));
  Alcotest.(check bool) "aarch64 128M+4 too far" false
    (Encode.jmp_fits Arch.Aarch64 ~wide:false (128 * mib));
  Alcotest.(check bool) "x86 short 127 ok" true
    (Encode.jmp_fits Arch.X86_64 ~wide:false 127);
  Alcotest.(check bool) "x86 short 128 too far" false
    (Encode.jmp_fits Arch.X86_64 ~wide:false 128);
  Alcotest.(check bool) "x86 wide 1G ok" true
    (Encode.jmp_fits Arch.X86_64 ~wide:true (1024 * mib))

let test_branch_roundtrip_far () =
  (* Maximum-range branches survive the encode/decode cycle. *)
  let check arch disp =
    let s = Encode.encode_jmp arch ~wide:false disp in
    match Encode.decode arch s ~pos:0 with
    | Insn.Jmp d, _ ->
        Alcotest.(check int) (Printf.sprintf "%s %d" (Arch.name arch) disp) disp d
    | i, _ -> Alcotest.failf "decoded %s" (Insn.to_string i)
  in
  check Arch.Ppc64le ((32 * 1024 * 1024) - 4);
  check Arch.Ppc64le (-32 * 1024 * 1024);
  check Arch.Aarch64 ((128 * 1024 * 1024) - 4);
  check Arch.Aarch64 (-128 * 1024 * 1024);
  check Arch.X86_64 127;
  check Arch.X86_64 (-128)

let test_boundary_immediates () =
  (* Field-edge values must round-trip exactly. *)
  let check arch insn =
    let s = Encode.encode arch insn in
    let decoded, n = Encode.decode arch s ~pos:0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" (Arch.name arch) (Insn.to_string insn))
      true
      (Insn.equal decoded insn && n = String.length s)
  in
  List.iter
    (fun arch ->
      (* RISC 16-bit immediate edges *)
      check arch (Insn.Mov (Reg.r1, Imm 32767));
      check arch (Insn.Mov (Reg.r1, Imm (-32768)));
      check arch (Insn.Add (Reg.r1, Imm (-32768)));
      check arch (Insn.Orlo (Reg.r1, 0xFFFF));
      check arch (Insn.Movhi (Reg.r1, -32768));
      check arch (Insn.Shl (Reg.r1, 63));
      (* 14-bit memory displacement edges *)
      check arch (Insn.Load (W64, Reg.r1, BSp, 8191));
      check arch (Insn.Store (W64, BSp, -8192, Reg.r1));
      check arch (Insn.CallRt 65535))
    [ Arch.Ppc64le; Arch.Aarch64 ];
  (* x86 32-bit edges *)
  check Arch.X86_64 (Insn.Mov (Reg.r1, Imm 0x7FFFFFFF));
  check Arch.X86_64 (Insn.Mov (Reg.r1, Imm (-0x80000000)));
  check Arch.X86_64 (Insn.Movabs (Reg.r1, 0x123456789AB));
  check Arch.X86_64 (Insn.Movabs (Reg.r1, -0x123456789AB));
  check Arch.X86_64 (Insn.Jmp 0x7FFFFFFF);
  (* overflow rejection on RISC *)
  List.iter
    (fun arch ->
      match Encode.encode arch (Insn.Mov (Reg.r1, Imm 32768)) with
      | exception Encode.Not_encodable _ -> ()
      | _ -> Alcotest.failf "%s: 32768 must overflow imm16" (Arch.name arch))
    [ Arch.Ppc64le; Arch.Aarch64 ];
  (* adrp page-alignment enforcement *)
  match Encode.encode Arch.Aarch64 (Insn.Adrp (Reg.r1, 4097)) with
  | exception Encode.Not_encodable _ -> ()
  | _ -> Alcotest.fail "unaligned adrp must be rejected"

(* Any bytes decode without raising, to an instruction of 1 to
   [max_insn_len] bytes: random 4-byte words, which reach every RISC
   opcode with every field value, and random byte strings decoded from
   start to end. *)
let decode_total =
  QCheck2.Test.make ~count:5000 ~name:"decode is total"
    QCheck2.Gen.(
      pair (oneofl Arch.all)
        (oneof
           [
             map
               (fun w ->
                 let b = Bytes.create 4 in
                 Bytes.set_int32_le b 0 w;
                 Bytes.to_string b)
               int32;
             string_size (int_range 1 32);
           ]))
    (fun (arch, s) ->
      let rec from pos =
        pos >= String.length s
        ||
        let _, n = Encode.decode arch s ~pos in
        n > 0 && n <= Encode.max_insn_len arch && from (pos + n)
      in
      from 0)

let test_zero_bytes_are_illegal () =
  List.iter
    (fun arch ->
      let s = String.make 8 '\000' in
      let i, _ = Encode.decode arch s ~pos:0 in
      Alcotest.(check bool) "zero decodes to illegal" true (i = Insn.Illegal))
    Arch.all

let test_not_encodable () =
  let raises f =
    match f () with
    | exception Encode.Not_encodable _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "movabs on ppc" true
    (raises (fun () -> Encode.encode Arch.Ppc64le (Insn.Movabs (Reg.r0, 5))));
  Alcotest.(check bool) "mflr on x86" true
    (raises (fun () -> Encode.encode Arch.X86_64 (Insn.Mflr Reg.r0)));
  Alcotest.(check bool) "ppc branch too far" true
    (raises (fun () -> Encode.encode Arch.Ppc64le (Insn.Jmp (64 * 1024 * 1024))));
  Alcotest.(check bool) "unaligned risc branch" true
    (raises (fun () -> Encode.encode Arch.Aarch64 (Insn.Jmp 6)))

(* Asking for the word-granular displacement field on x86-64 is a caller
   bug; it must fail as [Invalid_argument] naming the opcode, not as a
   bare assertion. *)
let test_branch_disp_bits () =
  List.iter
    (fun arch ->
      Alcotest.(check bool)
        (Arch.name arch ^ " has a displacement field")
        true
        (Encode.branch_disp_bits arch > 0))
    [ Arch.Ppc64le; Arch.Aarch64 ];
  match Encode.branch_disp_bits ~opcode:"jcc" Arch.X86_64 with
  | exception Invalid_argument m ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i =
          i + n <= h && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the opcode (%s)" m)
        true (contains m "jcc")
  | _ -> Alcotest.fail "x86-64 branch_disp_bits must be rejected"

(* ------------------------------------------------------------------ *)
(* Trampolines                                                         *)
(* ------------------------------------------------------------------ *)

let test_trampoline_lengths () =
  Alcotest.(check int) "x86 short" 2 (Trampoline.len Arch.X86_64 Trampoline.Short);
  Alcotest.(check int) "x86 long" 5 (Trampoline.len Arch.X86_64 (Trampoline.Long None));
  Alcotest.(check int) "ppc short" 4 (Trampoline.len Arch.Ppc64le Trampoline.Short);
  Alcotest.(check int) "ppc long" 16
    (Trampoline.len Arch.Ppc64le (Trampoline.Long (Some Reg.r12)));
  Alcotest.(check int) "ppc save/restore" 24
    (Trampoline.len Arch.Ppc64le (Trampoline.Long_save_restore Reg.r12));
  Alcotest.(check int) "aarch64 long" 12
    (Trampoline.len Arch.Aarch64 (Trampoline.Long (Some Reg.r12)));
  Alcotest.(check int) "x86 trap" 1 (Trampoline.len Arch.X86_64 Trampoline.Trap_tramp);
  Alcotest.(check int) "ppc trap" 4 (Trampoline.len Arch.Ppc64le Trampoline.Trap_tramp)

let decode_all arch s =
  let rec go pos acc =
    if pos >= String.length s then List.rev acc
    else
      let i, n = Encode.decode arch s ~pos in
      go (pos + n) (i :: acc)
  in
  go 0 []

let test_trampoline_emit_short () =
  List.iter
    (fun arch ->
      let at = 0x1000 and target = 0x1060 in
      let s = Trampoline.emit arch ~at ~target ~toc:0 Trampoline.Short in
      Alcotest.(check int) "len" (Trampoline.len arch Trampoline.Short)
        (String.length s);
      match decode_all arch s with
      | [ Insn.Jmp d ] ->
          Alcotest.(check int) (Arch.name arch) target (at + d)
      | _ -> Alcotest.fail "expected a single jmp")
    Arch.all

let test_trampoline_emit_ppc_long () =
  let toc = 0x8000000 in
  let at = 0x1000 and target = 0x40001230 in
  let s =
    Trampoline.emit Arch.Ppc64le ~at ~target ~toc (Trampoline.Long (Some Reg.r12))
  in
  match decode_all Arch.Ppc64le s with
  | [ Insn.Addis (rd, rs, hi); Insn.Add (rd2, Imm lo); Insn.Mttar rd3; Insn.Btar ]
    ->
      Alcotest.(check bool) "same reg" true
        (Reg.equal rd rd2 && Reg.equal rd rd3);
      Alcotest.(check bool) "toc base" true (Reg.equal rs Reg.toc);
      Alcotest.(check int) "computes target" target (toc + (hi lsl 16) + lo)
  | l ->
      Alcotest.failf "unexpected sequence: %s"
        (String.concat "; " (List.map Insn.to_string l))

let test_trampoline_emit_aarch64_long () =
  let at = 0x1234 and target = 0x40005678 in
  let s =
    Trampoline.emit Arch.Aarch64 ~at ~target ~toc:0
      (Trampoline.Long (Some Reg.r13))
  in
  match decode_all Arch.Aarch64 s with
  | [ Insn.Adrp (rd, pages); Insn.Add (rd2, Imm lo); Insn.IndJmp rd3 ] ->
      Alcotest.(check bool) "same reg" true
        (Reg.equal rd rd2 && Reg.equal rd rd3);
      let computed = (at land lnot 4095) + pages + lo in
      Alcotest.(check int) "computes target" target computed
  | l ->
      Alcotest.failf "unexpected sequence: %s"
        (String.concat "; " (List.map Insn.to_string l))

let test_trampoline_select () =
  let dead () = Reg.Set.of_list [ Reg.r12 ] in
  let none () = Reg.Set.empty in
  (* The dead registers are asked for only by a RISC long form. *)
  let unasked () = Alcotest.fail "select asked for the dead registers" in
  (* Short branch preferred whenever it reaches. *)
  Alcotest.(check bool) "x86 short" true
    (Trampoline.select Arch.X86_64 ~at:0 ~space:2 ~target:100 ~dead:unasked
       ~toc:0
    = Some Trampoline.Short);
  (* Out-of-short-range on x86 needs 5 bytes. *)
  Alcotest.(check bool) "x86 long" true
    (Trampoline.select Arch.X86_64 ~at:0 ~space:5 ~target:100000 ~dead:unasked
       ~toc:0
    = Some (Trampoline.Long None));
  Alcotest.(check bool) "x86 no space" true
    (Trampoline.select Arch.X86_64 ~at:0 ~space:4 ~target:100000 ~dead:unasked
       ~toc:0
    = None);
  Alcotest.(check bool) "ppc short" true
    (Trampoline.select Arch.Ppc64le ~at:0 ~space:4 ~target:100 ~dead:unasked
       ~toc:0
    = Some Trampoline.Short);
  (* ppc64le beyond 32MiB: needs the 4-instruction sequence and a register. *)
  let far = 64 * 1024 * 1024 in
  (match
     Trampoline.select Arch.Ppc64le ~at:0 ~space:16 ~target:far ~dead ~toc:0
   with
  | Some (Trampoline.Long (Some _)) -> ()
  | _ -> Alcotest.fail "ppc long expected");
  (match
     Trampoline.select Arch.Ppc64le ~at:0 ~space:24 ~target:far ~dead:none
       ~toc:0
   with
  | Some (Trampoline.Long_save_restore _) -> ()
  | _ -> Alcotest.fail "ppc save/restore expected");
  Alcotest.(check bool) "ppc too small" true
    (Trampoline.select Arch.Ppc64le ~at:0 ~space:12 ~target:far ~dead:unasked
       ~toc:0
    = None);
  (* aarch64 with no dead register cannot use the long form. *)
  let very_far = 256 * 1024 * 1024 in
  Alcotest.(check bool) "aarch64 no reg" true
    (Trampoline.select Arch.Aarch64 ~at:0 ~space:12 ~target:very_far ~dead:none
       ~toc:0
    = None);
  match
    Trampoline.select Arch.Aarch64 ~at:0 ~space:12 ~target:very_far ~dead ~toc:0
  with
  | Some (Trampoline.Long (Some _)) -> ()
  | _ -> Alcotest.fail "aarch64 long expected"

(* Properties: whatever [select] chooses must fit the space, and [emit]
   must produce exactly [len] bytes whose decoded first branch reaches the
   target (for the short kind). *)
let trampoline_select_sound =
  QCheck2.Test.make ~count:1000 ~name:"trampoline select is sound"
    QCheck2.Gen.(
      let* arch = oneofl Arch.all in
      let* at = map (fun n -> n * 4) (int_range 0x100000 0x200000) in
      let* dist = oneofl [ 64; 4096; 1 lsl 20; 40 * (1 lsl 20); 200 * (1 lsl 20) ] in
      let* neg = bool in
      let* space = map (fun n -> n * 4) (int_range 1 8) in
      let* have_dead = bool in
      return (arch, at, (if neg then at - dist else at + dist), space, have_dead))
    (fun (arch, at, target, space, have_dead) ->
      QCheck2.assume (target > 0);
      let dead () = if have_dead then Reg.Set.of_list [ Reg.r13; Reg.r15 ] else Reg.Set.empty in
      let toc = 0x600000 in
      match Trampoline.select arch ~at ~space ~target ~dead ~toc with
      | None -> true
      | Some kind ->
          let bytes = Trampoline.emit arch ~at ~target ~toc kind in
          String.length bytes = Trampoline.len arch kind
          && String.length bytes <= space
          &&
          (* a short trampoline must decode to a branch hitting the target *)
          (match kind with
          | Trampoline.Short -> (
              match Encode.decode arch bytes ~pos:0 with
              | Insn.Jmp d, _ -> at + d = target
              | _ -> false)
          | _ -> true))

let trampoline_emit_len =
  QCheck2.Test.make ~count:500 ~name:"trampoline emit length = len"
    QCheck2.Gen.(
      let* arch = oneofl Arch.all in
      let* kind =
        match arch with
        | Arch.X86_64 -> oneofl [ Trampoline.Short; Trampoline.Long None; Trampoline.Trap_tramp ]
        | Arch.Ppc64le ->
            oneofl
              [
                Trampoline.Short;
                Trampoline.Long (Some Reg.r12);
                Trampoline.Long_save_restore Reg.r13;
                Trampoline.Trap_tramp;
              ]
        | Arch.Aarch64 ->
            oneofl [ Trampoline.Short; Trampoline.Long (Some Reg.r14); Trampoline.Trap_tramp ]
      in
      let* at = map (fun n -> n * 4) (int_range 0x100000 0x140000) in
      return (arch, kind, at))
    (fun (arch, kind, at) ->
      let target = at + 64 in
      let bytes = Trampoline.emit arch ~at ~target ~toc:0x600000 kind in
      String.length bytes = Trampoline.len arch kind)

let test_catalogue_matches_arch_ranges () =
  List.iter
    (fun (r : Trampoline.row) ->
      let shorts =
        List.filter (fun (x : Trampoline.row) -> x.arch = r.arch) Trampoline.catalogue
      in
      Alcotest.(check int) "two rows per arch" 2 (List.length shorts))
    Trampoline.catalogue;
  List.iter
    (fun arch ->
      match
        List.filter (fun (x : Trampoline.row) -> x.arch = arch) Trampoline.catalogue
      with
      | [ short; long ] ->
          Alcotest.(check int) "short range" (Arch.short_branch_range arch)
            short.range;
          Alcotest.(check int) "long range" (Arch.long_branch_range arch)
            long.range
      | _ -> Alcotest.fail "catalogue shape")
    Arch.all

(* ------------------------------------------------------------------ *)
(* Dataflow helpers                                                    *)
(* ------------------------------------------------------------------ *)

let test_defs_uses () =
  let check_mem insn expect_defs expect_uses =
    let d = Insn.defs insn and u = Insn.uses insn in
    Alcotest.(check (list int))
      ("defs " ^ Insn.to_string insn)
      (List.map Reg.index expect_defs)
      (List.map Reg.index (Reg.Set.elements d));
    Alcotest.(check (list int))
      ("uses " ^ Insn.to_string insn)
      (List.map Reg.index expect_uses)
      (List.map Reg.index (Reg.Set.elements u))
  in
  check_mem (Insn.Mov (Reg.r1, Reg Reg.r2)) [ Reg.r1 ] [ Reg.r2 ];
  check_mem (Insn.Add (Reg.r1, Imm 3)) [ Reg.r1 ] [ Reg.r1 ];
  check_mem (Insn.Load (W64, Reg.r4, BReg Reg.r5, 8)) [ Reg.r4 ] [ Reg.r5 ];
  check_mem (Insn.Store (W64, BSp, 8, Reg.r3)) [] [ Reg.r3 ];
  check_mem (Insn.IndJmp Reg.r7) [] [ Reg.r7 ];
  check_mem (Insn.LoadIdx (W32, Reg.r1, Reg.r2, Reg.r3, 4)) [ Reg.r1 ]
    [ Reg.r2; Reg.r3 ];
  check_mem Insn.Ret [] []

let test_direct_target () =
  let i = Insn.Jmp 100 in
  Alcotest.(check (option int)) "jmp" (Some 1100)
    (Insn.direct_target ~addr:1000 i);
  let i' = Insn.with_direct_target ~addr:1000 i 2000 in
  Alcotest.(check (option int)) "retarget" (Some 2000)
    (Insn.direct_target ~addr:1000 i');
  Alcotest.(check (option int)) "non-branch" None
    (Insn.direct_target ~addr:1000 Insn.Nop)

let suite =
  let qt t = QCheck_alcotest.to_alcotest t in
  [
    ( "isa:encode",
      List.map (fun (_, t) -> qt t) (arch_cases roundtrip_test)
      @ List.map (fun (_, t) -> qt t) (arch_cases length_matches_encode)
      @ [
          Alcotest.test_case "x86 lengths" `Quick test_x86_lengths;
          Alcotest.test_case "fixed lengths" `Quick test_fixed_lengths;
          Alcotest.test_case "branch ranges" `Quick test_branch_ranges;
          Alcotest.test_case "far branch roundtrip" `Quick
            test_branch_roundtrip_far;
          Alcotest.test_case "boundary immediates" `Quick
            test_boundary_immediates;
          qt decode_total;
          Alcotest.test_case "zero bytes illegal" `Quick
            test_zero_bytes_are_illegal;
          Alcotest.test_case "not encodable" `Quick test_not_encodable;
          Alcotest.test_case "branch disp bits" `Quick test_branch_disp_bits;
        ] );
    ( "isa:trampoline",
      [
        Alcotest.test_case "lengths (Table 2)" `Quick test_trampoline_lengths;
        Alcotest.test_case "emit short" `Quick test_trampoline_emit_short;
        Alcotest.test_case "emit ppc long" `Quick test_trampoline_emit_ppc_long;
        Alcotest.test_case "emit aarch64 long" `Quick
          test_trampoline_emit_aarch64_long;
        Alcotest.test_case "select" `Quick test_trampoline_select;
        qt trampoline_select_sound;
        qt trampoline_emit_len;
        Alcotest.test_case "catalogue ranges" `Quick
          test_catalogue_matches_arch_ranges;
      ] );
    ( "isa:insn",
      [
        Alcotest.test_case "defs/uses" `Quick test_defs_uses;
        Alcotest.test_case "direct targets" `Quick test_direct_target;
      ] );
  ]
