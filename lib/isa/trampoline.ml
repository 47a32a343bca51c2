type kind =
  | Short
  | Long of Reg.t option
  | Long_save_restore of Reg.t
  | Trap_tramp

let pp_kind ppf = function
  | Short -> Format.pp_print_string ppf "short"
  | Long None -> Format.pp_print_string ppf "long"
  | Long (Some r) -> Format.fprintf ppf "long(%a)" Reg.pp r
  | Long_save_restore r -> Format.fprintf ppf "long-save-restore(%a)" Reg.pp r
  | Trap_tramp -> Format.pp_print_string ppf "trap"

let trap_len arch = Encode.length arch Insn.Trap

let len arch = function
  | Short -> Encode.short_jmp_len arch
  | Long _ -> (
      match arch with
      | Arch.X86_64 -> 5
      | Arch.Ppc64le -> 16 (* addis, addi, mtspr, bctar *)
      | Arch.Aarch64 -> 12 (* adrp, add, br *))
  | Long_save_restore _ -> 24 (* store, addis, addi, mtspr, load, bctar *)
  | Trap_tramp -> trap_len arch

let short_reaches arch ~at ~target =
  Encode.jmp_fits arch ~wide:false (target - at)

(* Split an offset into a high/low pair such that
   (hi lsl 16) + sign_extend lo 16 = off. *)
let split_hi_lo off =
  let hi = (off + 0x8000) asr 16 in
  let lo = off - (hi lsl 16) in
  (hi, lo)

let long_reaches arch ~at ~target ~toc =
  match arch with
  | Arch.X86_64 ->
      let d = target - at in
      d >= -0x80000000 && d < 0x80000000
  | Arch.Ppc64le ->
      let off = target - toc in
      let hi, _ = split_hi_lo off in
      hi >= -0x8000 && hi < 0x8000
  | Arch.Aarch64 ->
      let pages = ((target land lnot 4095) - (at land lnot 4095)) asr 12 in
      pages >= -(1 lsl 20) && pages < 1 lsl 20

let concat_encoded arch insns =
  String.concat "" (List.map (Encode.encode arch) insns)

let emit arch ~at ~target ~toc kind =
  match (kind, arch) with
  | Short, _ -> Encode.encode_jmp arch ~wide:false (target - at)
  | Long _, Arch.X86_64 -> Encode.encode_jmp arch ~wide:true (target - at)
  | Long (Some reg), Arch.Ppc64le ->
      let hi, lo = split_hi_lo (target - toc) in
      concat_encoded arch
        [
          Insn.Addis (reg, Reg.toc, hi);
          Insn.Add (reg, Imm lo);
          Insn.Mttar reg;
          Insn.Btar;
        ]
  | Long_save_restore reg, Arch.Ppc64le ->
      let hi, lo = split_hi_lo (target - toc) in
      concat_encoded arch
        [
          Insn.Store (W64, BSp, -8, reg);
          Insn.Addis (reg, Reg.toc, hi);
          Insn.Add (reg, Imm lo);
          Insn.Mttar reg;
          Insn.Load (W64, reg, BSp, -8);
          Insn.Btar;
        ]
  | Long (Some reg), Arch.Aarch64 ->
      (* adrp computes relative to the page of its own address. *)
      let adrp_at = at in
      let page_delta = (target land lnot 4095) - (adrp_at land lnot 4095) in
      concat_encoded arch
        [
          Insn.Adrp (reg, page_delta);
          Insn.Add (reg, Imm (target land 4095));
          Insn.IndJmp reg;
        ]
  | Trap_tramp, _ -> Encode.encode arch Insn.Trap
  | Long None, (Arch.Ppc64le | Arch.Aarch64) ->
      raise (Encode.Not_encodable "long trampoline needs a scratch register")
  | Long_save_restore _, (Arch.X86_64 | Arch.Aarch64) ->
      raise
        (Encode.Not_encodable "save/restore trampoline is ppc64le-specific")

let pick_dead arch dead =
  (* Prefer a high caller-saved register; never use the ppc64le TOC. *)
  let dead = dead () in
  let candidates = List.rev (Reg.caller_saved arch) in
  List.find_opt (fun r -> Reg.Set.mem r dead) candidates

let select arch ~at ~space ~target ~dead ~toc =
  if space >= len arch Short && short_reaches arch ~at ~target then Some Short
  else
    match arch with
    | Arch.X86_64 ->
        if space >= len arch (Long None) && long_reaches arch ~at ~target ~toc
        then Some (Long None)
        else None
    | Arch.Ppc64le ->
        if not (long_reaches arch ~at ~target ~toc) then None
        else if space >= len arch (Long None) then
          match pick_dead arch dead with
          | Some r -> Some (Long (Some r))
          | None ->
              if space >= len arch (Long_save_restore Reg.r12) then
                Some (Long_save_restore Reg.r12)
              else None
        else None
    | Arch.Aarch64 ->
        if space >= len arch (Long None) && long_reaches arch ~at ~target ~toc
        then
          match pick_dead arch dead with
          | Some r -> Some (Long (Some r))
          | None -> None
        else None

type row = {
  arch : Arch.t;
  instructions : string;
  range : int;
  length_desc : string;
}

let catalogue =
  [
    {
      arch = Arch.X86_64;
      instructions = "2-byte branch";
      range = 128;
      length_desc = "2B";
    };
    {
      arch = Arch.X86_64;
      instructions = "5-byte branch";
      range = 2 * 1024 * 1024 * 1024;
      length_desc = "5B";
    };
    {
      arch = Arch.Ppc64le;
      instructions = "b";
      range = 32 * 1024 * 1024;
      length_desc = "1I";
    };
    {
      arch = Arch.Ppc64le;
      instructions =
        "addis reg, r2, off@high; addi reg, reg, off@low; mtspr tar, reg; \
         bctar";
      range = 2 * 1024 * 1024 * 1024;
      length_desc = "4I";
    };
    {
      arch = Arch.Aarch64;
      instructions = "b";
      range = 128 * 1024 * 1024;
      length_desc = "1I";
    };
    {
      arch = Arch.Aarch64;
      instructions = "adrp reg, off@high; add reg, reg, off@low; br reg";
      range = 4 * 1024 * 1024 * 1024;
      length_desc = "3I";
    };
  ]
