open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Ehframe = Icfg_obj.Ehframe

(* Cycles per instruction class: every step whose fetch succeeds pays
   [cost_base], and the classes below pay their extra on top. *)
let cost_base = 1
and cost_mem = 1
and cost_mul = 2
and cost_branch_taken = 1
and cost_indirect = 2
and cost_callrt = 12
and cost_trap = 4000
and cost_unwind_step = 60

let pie_base = 0x20000000

(* The stack maps the [stack_size] bytes from [stack_base], and an access
   below [stack_base] is unmapped. Its segment stores only a window
   around the bytes a run wrote (see [segment]), so [stack_size] bounds
   addresses, not an allocation. *)
let stack_base = 0x7E000000
let stack_size = 1 lsl 20

type config = {
  max_steps : int;
  icache : Icache.config option;
  trap_map : (int, int) Hashtbl.t;
  translate : (int -> int) option;
  go_translate : (int -> int) option;
  profile : (int, int) Hashtbl.t option;
}

let default_config () =
  {
    max_steps = 200_000_000;
    icache = None;
    trap_map = Hashtbl.create 16;
    translate = None;
    go_translate = None;
    profile = None;
  }

type outcome = Halted | Crashed of string

type result = {
  outcome : outcome;
  output : int list;
  steps : int;
  cycles : int;
  icache_misses : int;
  icache_accesses : int;
  trap_hits : int;
  unwind_steps : int;
  ra_translations : int;
  cycle_buckets : (string * int) list;
}

(* Every cycle charged is attributed to exactly one bucket, so the bucket
   totals partition [cycles] (asserted by test/test_trace.ml). *)
let bucket_names =
  [| "base"; "mem"; "mul"; "branch"; "indirect"; "callrt"; "trap"; "unwind";
     "icache" |]

let b_base = 0
and b_mem = 1
and b_mul = 2
and b_branch = 3
and b_indirect = 4
and b_callrt = 5
and b_trap = 6
and b_unwind = 7
and b_icache = 8

(* ------------------------------------------------------------------ *)
(* Segments: memory and decoded blocks                                *)
(* ------------------------------------------------------------------ *)

(* A decoded basic block: the instructions from its head through the
   first terminator or to the segment's end, and just one instruction in
   a writable code segment. [pcs] holds each
   instruction's address and then the address after the block, [lines]
   each instruction's icache line. *)
type block = {
  insns : Insn.t array;
  pcs : int array;
  lines : int array;
  profiled : bool;  (** some instruction's address is a profiled key *)
}

let no_block = { insns = [||]; pcs = [||]; lines = [||]; profiled = false }

(* An executable segment caches its blocks by start offset, in pages of
   [1 lsl page_bits] offsets allocated on first use. *)
let page_bits = 6
let no_page : block array = [||]

(* A segment stores a window of its bytes: [win] holds the bytes from
   [win_base], and every other byte of the segment reads as zero. A write
   outside the window grows it (see [grow]). A data segment's window starts
   as its section's stored prefix, the stack's as an empty window at its
   top, and an executable segment stores all of its bytes, which its
   blocks decode from. *)
type segment = {
  seg_base : int;
  seg_size : int;
  seg_perm : Section.perm;
  mutable win_base : int;
  mutable win : Bytes.t;
  pages : block array array;  (** [no_page] until a block starts there *)
}

let seg_end s = s.seg_base + s.seg_size

(* What a lookup returns for an unmapped address; never written. *)
let no_segment =
  {
    seg_base = 0;
    seg_size = 0;
    seg_perm = Section.r_only;
    win_base = 0;
    win = Bytes.empty;
    pages = [||];
  }

let[@inline] in_window s addr n =
  addr >= s.win_base && addr + n <= s.win_base + Bytes.length s.win

(* The smallest window a write creates. *)
let min_window = 256

(* Grow [s]'s window towards a write of [n] bytes at [addr] that it does
   not cover: to at least twice its length, within the segment, keeping
   the end it grows away from. The copy zero-fills the new bytes. *)
let grow s addr n =
  let lo = s.win_base and hi = s.win_base + Bytes.length s.win in
  let want = max (2 * (hi - lo)) min_window in
  let lo', hi' =
    if addr < lo then
      let hi' = max hi (addr + n) in
      (max s.seg_base (min addr (hi' - want)), hi')
    else (lo, min (seg_end s) (max (addr + n) (lo + want)))
  in
  let b = Bytes.make (hi' - lo') '\000' in
  Bytes.blit s.win 0 b (lo - lo') (hi - lo);
  s.win_base <- lo';
  s.win <- b

type t = {
  bin : Binary.t;
  cfg : config;
  segments : segment array;  (** sorted by base *)
  mutable code_seg : segment;  (** the segment of the last fetch *)
  mutable data_seg : segment;  (** the segment of the last load or store *)
  regs : int array;
  mutable sp_ : int;
  mutable lr_ : int;
  mutable tar : int;
  mutable cmp_delta : int;
  mutable pc_ : int;
  has_lr : bool;  (** calls link through [lr_], not the stack *)
  mutable out_rev : int list;
  mutable steps : int;
  mutable fetch_faults : int;  (** steps whose fetch faulted *)
  mutable cycles : int;  (** all but the base cycles, charged by [run] *)
  buckets : int array;  (** per-cost-bucket cycle attribution *)
  mutable line : int;  (** the icache line of the last fetch *)
  line_bytes : int;  (** the icache's, or 64 without one *)
  miss_cost : int;
  mutable trap_hits : int;
  mutable unwind_count : int;
  mutable ra_count : int;  (** RA-translation hook invocations *)
  mutable state : [ `Running | `Halted | `Crashed of string ];
  icache : Icache.t option;
  routines : (t -> unit) option array;
  routine_names : string array;
}

exception Vm_stop

let crash vm msg =
  (match vm.state with `Running -> vm.state <- `Crashed msg | _ -> ());
  raise Vm_stop

let[@inline] charge vm bucket n =
  vm.cycles <- vm.cycles + n;
  vm.buckets.(bucket) <- vm.buckets.(bucket) + n

let[@inline] contains s addr = addr >= s.seg_base && addr < seg_end s

(* Binary search of the sorted segments; [no_segment] if none maps
   [addr]. *)
let lookup segs addr =
  let lo = ref 0 and hi = ref (Array.length segs - 1) and res = ref no_segment in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = segs.(mid) in
    if addr < s.seg_base then hi := mid - 1
    else if addr >= seg_end s then lo := mid + 1
    else (
      res := s;
      lo := !hi + 1)
  done;
  !res

let code_segment vm addr =
  if contains vm.code_seg addr then vm.code_seg
  else
    let s = lookup vm.segments addr in
    vm.code_seg <- s;
    s

let[@inline] data_segment vm addr =
  if contains vm.data_seg addr then vm.data_seg
  else
    let s = lookup vm.segments addr in
    vm.data_seg <- s;
    s

let sign_extend v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let[@inline] width_bytes : Insn.width -> int = function
  | W8 -> 1
  | W16 -> 2
  | W32 -> 4
  | W64 -> 8

let[@inline] load_word b off (w : Insn.width) =
  match w with
  | W8 -> sign_extend (Bytes.get_uint8 b off) 8
  | W16 -> sign_extend (Bytes.get_uint16_le b off) 16
  | W32 -> Int32.to_int (Bytes.get_int32_le b off)
  | W64 -> Int64.to_int (Bytes.get_int64_le b off)

(* A word the window does not wholly hold: its bytes outside the window
   read as zero. *)
let load_straddling s addr n =
  let v = ref 0 in
  for a = addr + n - 1 downto addr do
    let off = a - s.win_base in
    let byte =
      if off >= 0 && off < Bytes.length s.win then Bytes.get_uint8 s.win off
      else 0
    in
    v := (!v lsl 8) lor byte
  done;
  if n = 8 then !v else sign_extend !v (8 * n)

let read_mem vm addr (w : Insn.width) =
  let n = width_bytes w in
  let s = data_segment vm addr in
  if s == no_segment || addr + n > seg_end s then
    crash vm (Printf.sprintf "read from unmapped address 0x%x" addr)
  else if in_window s addr n then load_word s.win (addr - s.win_base) w
  else load_straddling s addr n

let write_mem vm addr (w : Insn.width) v =
  let n = width_bytes w in
  let s = data_segment vm addr in
  if s == no_segment || addr + n > seg_end s then
    crash vm (Printf.sprintf "write to unmapped address 0x%x" addr);
  if not s.seg_perm.Section.write then
    crash vm (Printf.sprintf "write to read-only address 0x%x" addr);
  if not (in_window s addr n) then grow s addr n;
  let b = s.win and off = addr - s.win_base in
  match w with
  | W8 -> Bytes.set_uint8 b off (v land 0xff)
  | W16 -> Bytes.set_uint16_le b off (v land 0xffff)
  | W32 -> Bytes.set_int32_le b off (Int32.of_int v)
  | W64 -> Bytes.set_int64_le b off (Int64.of_int v)

(* Loader-time write: relocations may target read-only sections (the loader
   relocates before write-protecting). *)
let write_mem_raw vm addr v =
  let s = data_segment vm addr in
  if s == no_segment || addr + 8 > seg_end s then
    crash vm (Printf.sprintf "relocation outside any segment: 0x%x" addr);
  if not (in_window s addr 8) then grow s addr 8;
  Bytes.set_int64_le s.win (addr - s.win_base) (Int64.of_int v)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

(* [Reg.t] is a private int: the coercion indexes without a call. *)
let[@inline] reg vm (r : Reg.t) = vm.regs.((r :> int))
let[@inline] set_reg vm (r : Reg.t) v = vm.regs.((r :> int)) <- v
let pc vm = vm.pc_
let sp vm = vm.sp_
let lr vm = vm.lr_
let load_base vm = if vm.bin.Binary.pie then pie_base else 0
let binary vm = vm.bin
let emit_output vm v = vm.out_rev <- v :: vm.out_rev
let abort vm msg = crash vm msg

let count_ra_translation vm = vm.ra_count <- vm.ra_count + 1

let find_symbol vm name =
  match Binary.symbol vm.bin name with
  | Some s -> Some (s.Icfg_obj.Symbol.addr + load_base vm)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Unwinding                                                           *)
(* ------------------------------------------------------------------ *)

let fde_at vm ~hook pc_rt =
  let link = pc_rt - load_base vm in
  let link =
    match hook with
    | Some f ->
        vm.ra_count <- vm.ra_count + 1;
        f link
    | None -> link
  in
  (link, Ehframe.find vm.bin.Binary.eh_frame link)

let ra_of_frame vm fde sp lr =
  match fde.Ehframe.ra_loc with
  | Ehframe.Ra_on_stack off -> read_mem vm (sp + off) W64
  | Ehframe.Ra_in_lr -> lr

(* Deliver the exception currently in r0: walk frames using the original
   .eh_frame (through the RA-translation hook when installed) until a
   landing pad covers the translated PC. *)
let throw vm =
  let exc = reg vm Reg.r0 in
  let rec go pc_rt sp lr depth =
    if depth > 512 then crash vm "unwind: too many frames";
    vm.unwind_count <- vm.unwind_count + 1;
    charge vm b_unwind cost_unwind_step;
    let link, fde = fde_at vm ~hook:vm.cfg.translate pc_rt in
    match fde with
    | None ->
        if pc_rt = 0 then crash vm "unhandled exception"
        else crash vm (Printf.sprintf "unwind: no FDE for 0x%x" link)
    | Some fde -> (
        match Ehframe.handler_for fde ~pc:link with
        | Some handler ->
            vm.pc_ <- handler + load_base vm;
            vm.sp_ <- sp;
            set_reg vm Reg.r0 exc
        | None ->
            let ra = ra_of_frame vm fde sp lr in
            if ra = 0 then crash vm "unhandled exception"
            else
              (* Standard IP-1 convention: match the caller frame against
                 the address of its call instruction, not the return
                 address, so calls ending a try range still find their
                 landing pad. *)
              go (ra - 1) (sp + fde.Ehframe.frame_size) 0 (depth + 1))
  in
  go vm.pc_ vm.sp_ vm.lr_ 0

let frames vm =
  let rec go pc_rt sp lr depth acc =
    if depth > 512 then List.rev ((-1, sp) :: acc)
    else
      let _, fde = fde_at vm ~hook:vm.cfg.go_translate pc_rt in
      match fde with
      | None -> List.rev ((-1, sp) :: acc)
      | Some fde ->
          let acc = (pc_rt, sp) :: acc in
          if fde.Ehframe.func_start = vm.bin.Binary.entry then List.rev acc
          else
            let ra = ra_of_frame vm fde sp lr in
            if ra = 0 then List.rev ((-1, sp) :: acc)
            else go ra (sp + fde.Ehframe.frame_size) 0 (depth + 1) acc
  in
  go vm.pc_ vm.sp_ vm.lr_ 0 []

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] operand_value vm (o : Insn.operand) =
  match o with Reg r -> reg vm r | Imm n -> n

let[@inline] base_value vm = function
  | Insn.BReg r -> reg vm r
  | Insn.BSp -> vm.sp_

let[@inline] cond_holds delta (c : Insn.cond) =
  match c with
  | Eq -> delta = 0
  | Ne -> delta <> 0
  | Lt -> delta < 0
  | Le -> delta <= 0
  | Gt -> delta > 0
  | Ge -> delta >= 0

let do_call vm ~retaddr ~target =
  (if vm.has_lr then vm.lr_ <- retaddr
   else (
     vm.sp_ <- vm.sp_ - 8;
     write_mem vm vm.sp_ W64 retaddr));
  vm.pc_ <- target

(* Execute [insn], fetched at [pc0]; [next] is the address after it. The
   caller counts the step and charges its fetch. *)
let exec vm (insn : Insn.t) pc0 next =
  match insn with
  | Nop -> vm.pc_ <- next
  | Halt ->
      vm.state <- `Halted;
      raise Vm_stop
  | Illegal -> crash vm (Printf.sprintf "illegal instruction at 0x%x" pc0)
  | Trap -> (
      vm.trap_hits <- vm.trap_hits + 1;
      charge vm b_trap cost_trap;
      let link = pc0 - load_base vm in
      match Hashtbl.find_opt vm.cfg.trap_map link with
      | Some target -> vm.pc_ <- target + load_base vm
      | None -> crash vm (Printf.sprintf "trap without mapping at 0x%x" link))
  | Mov (r, o) ->
      set_reg vm r (operand_value vm o);
      vm.pc_ <- next
  | Movhi (r, n) ->
      set_reg vm r (n lsl 16);
      vm.pc_ <- next
  | Orlo (r, n) ->
      set_reg vm r (reg vm r lor (n land 0xffff));
      vm.pc_ <- next
  | Movabs (r, n) ->
      set_reg vm r n;
      vm.pc_ <- next
  | Add (r, o) ->
      set_reg vm r (reg vm r + operand_value vm o);
      vm.pc_ <- next
  | Sub (r, o) ->
      set_reg vm r (reg vm r - operand_value vm o);
      vm.pc_ <- next
  | Mul (r, o) ->
      charge vm b_mul cost_mul;
      set_reg vm r (reg vm r * operand_value vm o);
      vm.pc_ <- next
  | And_ (r, o) ->
      set_reg vm r (reg vm r land operand_value vm o);
      vm.pc_ <- next
  | Or_ (r, o) ->
      set_reg vm r (reg vm r lor operand_value vm o);
      vm.pc_ <- next
  | Xor (r, o) ->
      set_reg vm r (reg vm r lxor operand_value vm o);
      vm.pc_ <- next
  | Shl (r, n) ->
      set_reg vm r (reg vm r lsl n);
      vm.pc_ <- next
  | Shr (r, n) ->
      set_reg vm r (reg vm r asr n);
      vm.pc_ <- next
  | Cmp (r, o) ->
      vm.cmp_delta <- reg vm r - operand_value vm o;
      vm.pc_ <- next
  | Load (w, rd, b, d) ->
      charge vm b_mem cost_mem;
      set_reg vm rd (read_mem vm (base_value vm b + d) w);
      vm.pc_ <- next
  | Store (w, b, d, rs) ->
      charge vm b_mem cost_mem;
      write_mem vm (base_value vm b + d) w (reg vm rs);
      vm.pc_ <- next
  | LoadIdx (w, rd, rb, ri, s) ->
      charge vm b_mem cost_mem;
      set_reg vm rd (read_mem vm (reg vm rb + (reg vm ri * s)) w);
      vm.pc_ <- next
  | Lea (r, d) ->
      set_reg vm r (pc0 + d);
      vm.pc_ <- next
  | AddSp n ->
      vm.sp_ <- vm.sp_ + n;
      vm.pc_ <- next
  | Jmp d ->
      charge vm b_branch cost_branch_taken;
      vm.pc_ <- pc0 + d
  | Jcc (cond, d) ->
      if cond_holds vm.cmp_delta cond then (
        charge vm b_branch cost_branch_taken;
        vm.pc_ <- pc0 + d)
      else vm.pc_ <- next
  | Call d ->
      charge vm b_branch cost_branch_taken;
      do_call vm ~retaddr:next ~target:(pc0 + d)
  | IndJmp r ->
      charge vm b_indirect cost_indirect;
      vm.pc_ <- reg vm r
  | IndCall r ->
      charge vm b_indirect cost_indirect;
      do_call vm ~retaddr:next ~target:(reg vm r)
  | IndCallMem (b, d) ->
      charge vm b_mem cost_mem;
      charge vm b_indirect cost_indirect;
      let target = read_mem vm (base_value vm b + d) W64 in
      do_call vm ~retaddr:next ~target
  | Ret ->
      charge vm b_branch cost_branch_taken;
      if vm.has_lr then vm.pc_ <- vm.lr_
      else (
        let ra = read_mem vm vm.sp_ W64 in
        vm.sp_ <- vm.sp_ + 8;
        vm.pc_ <- ra)
  | CallRt idx -> (
      charge vm b_callrt cost_callrt;
      if idx >= Array.length vm.routines then
        crash vm (Printf.sprintf "callrt: bad dynamic symbol index %d" idx)
      else
        match vm.routines.(idx) with
        | None ->
            crash vm
              (Printf.sprintf "callrt: unbound routine %s" vm.routine_names.(idx))
        | Some f ->
            f vm;
            vm.pc_ <- next)
  | Throw ->
      charge vm b_indirect cost_indirect;
      throw vm
  | Out r ->
      emit_output vm (reg vm r);
      vm.pc_ <- next
  | Mflr r ->
      set_reg vm r vm.lr_;
      vm.pc_ <- next
  | Mtlr r ->
      vm.lr_ <- reg vm r;
      vm.pc_ <- next
  | Mttar r ->
      vm.tar <- reg vm r;
      vm.pc_ <- next
  | Btar ->
      charge vm b_indirect cost_indirect;
      vm.pc_ <- vm.tar
  | Adrp (r, d) ->
      set_reg vm r ((pc0 land lnot 4095) + d);
      vm.pc_ <- next
  | Addis (rd, rs, n) ->
      set_reg vm rd (reg vm rs + (n lsl 16));
      vm.pc_ <- next

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)
(* ------------------------------------------------------------------ *)

(* The return address [call_function] plants. A block never runs past it,
   so a nested call stops there exactly. *)
let sentinel = 2

let running vm = match vm.state with `Running -> true | `Halted | `Crashed _ -> false

let profile_hit vm pc =
  match vm.cfg.profile with
  | Some tbl ->
      let key = pc - load_base vm in
      if Hashtbl.mem tbl key then
        Hashtbl.replace tbl key (1 + Hashtbl.find tbl key)
  | None -> ()

(* The icache sees a fetch only when its line differs from the last
   fetch's: the last fetch left its line cached, so that access hits. *)
let fetch_line vm line pc =
  if line <> vm.line then (
    vm.line <- line;
    match vm.icache with
    | Some ic -> if Icache.access ic pc then charge vm b_icache vm.miss_cost
    | None -> ())

let timeout vm = crash vm "timeout: max steps exceeded"

(* A fetch that faults is still a step: it counts and reaches the
   profile and the icache, but pays no base cycle. *)
let fetch_fault vm s pc =
  if vm.steps >= vm.cfg.max_steps then timeout vm;
  vm.steps <- vm.steps + 1;
  vm.fetch_faults <- vm.fetch_faults + 1;
  profile_hit vm pc;
  fetch_line vm (pc / vm.line_bytes) pc;
  crash vm
    (if s == no_segment then Printf.sprintf "execute unmapped address 0x%x" pc
     else Printf.sprintf "execute non-executable address 0x%x" pc)

(* Decode the block at [pc] of executable segment [s]. The decoder is
   total, so decoding past what runs is harmless. *)
let decode_block vm s pc =
  let arch = vm.bin.Binary.arch in
  let rec go pc insns pcs =
    let insn, len = Encode.decode_bytes arch s.win ~pos:(pc - s.win_base) in
    let next = pc + len and insns = insn :: insns and pcs = pc :: pcs in
    if
      s.seg_perm.Section.write || Insn.is_terminator insn
      || next >= seg_end s || next = sentinel
    then (insns, pcs, next)
    else go next insns pcs
  in
  let insns, pcs, stop = go pc [] [] in
  let lb = load_base vm in
  {
    insns = Array.of_list (List.rev insns);
    pcs = Array.of_list (List.rev (stop :: pcs));
    lines = Array.of_list (List.rev_map (fun pc -> pc / vm.line_bytes) pcs);
    profiled =
      (match vm.cfg.profile with
      | Some tbl -> List.exists (fun pc -> Hashtbl.mem tbl (pc - lb)) pcs
      | None -> false);
  }

(* The block at [pc], decoded on its first fetch. Segment lookup and
   the execute-permission check happen here, once per block. *)
let block_at vm pc =
  let s = code_segment vm pc in
  if s == no_segment || not s.seg_perm.Section.execute then fetch_fault vm s pc;
  let off = pc - s.seg_base in
  let page =
    let p = s.pages.(off lsr page_bits) in
    if p != no_page then p
    else
      let p = Array.make (1 lsl page_bits) no_block in
      s.pages.(off lsr page_bits) <- p;
      p
  in
  let slot = off land ((1 lsl page_bits) - 1) in
  let b = page.(slot) in
  if b != no_block then b
  else
    let b = decode_block vm s pc in
    page.(slot) <- b;
    b

(* Run block [b]. The step limit and the profile are checked once for
   the block, unless it may reach the limit or holds a profiled address:
   then every step checks them, so a timeout falls on the same step. *)
let exec_block vm b =
  let insns = b.insns and pcs = b.pcs and lines = b.lines in
  let n = Array.length insns in
  let careful = b.profiled || vm.steps > vm.cfg.max_steps - n in
  for i = 0 to n - 1 do
    let pc = pcs.(i) in
    if careful then (
      if vm.steps >= vm.cfg.max_steps then timeout vm;
      profile_hit vm pc);
    vm.steps <- vm.steps + 1;
    let line = lines.(i) in
    if line <> vm.line then fetch_line vm line pc;
    exec vm insns.(i) pc pcs.(i + 1)
  done

(* The one run loop, for [run] and [call_function]: blocks until the
   machine stops or, [nested], returns to [sentinel]. *)
let exec_blocks vm ~nested =
  try
    while running vm && not (nested && vm.pc_ = sentinel) do
      exec_block vm (block_at vm vm.pc_)
    done
  with Vm_stop -> ()

let call_function vm ~addr ~args =
  if List.compare_lengths args Reg.arg_regs > 0 then
    invalid_arg "call_function: too many arguments";
  let saved_regs = Array.copy vm.regs in
  let saved = (vm.sp_, vm.lr_, vm.tar, vm.cmp_delta, vm.pc_) in
  let rec bind regs args =
    match (regs, args) with
    | r :: regs, v :: args ->
        set_reg vm r v;
        bind regs args
    | _ -> ()
  in
  bind Reg.arg_regs args;
  (if vm.has_lr then vm.lr_ <- sentinel
   else (
     vm.sp_ <- vm.sp_ - 8;
     write_mem vm vm.sp_ W64 sentinel));
  vm.pc_ <- addr;
  exec_blocks vm ~nested:true;
  let result = reg vm Reg.r0 in
  Array.blit saved_regs 0 vm.regs 0 (Array.length saved_regs);
  let sp', lr', tar', cmp', pc' = saved in
  vm.sp_ <- sp';
  vm.lr_ <- lr';
  vm.tar <- tar';
  vm.cmp_delta <- cmp';
  vm.pc_ <- pc';
  (match vm.state with `Crashed m -> crash vm m | `Halted | `Running -> ());
  result

(* ------------------------------------------------------------------ *)
(* Loading and running                                                 *)
(* ------------------------------------------------------------------ *)

let load ?(config : config option) ?(routines = []) (bin : Binary.t) =
  let cfg = match config with Some c -> c | None -> default_config () in
  let lb = if bin.Binary.pie then pie_base else 0 in
  (* A data segment's window is a copy of its section's stored prefix; an
     executable one stores the whole segment, so a block decodes from one
     buffer. *)
  let seg_of_section (s : Section.t) =
    let size = Section.size s and exec = s.Section.perm.Section.execute in
    let stored = Bytes.length s.Section.data in
    let win = Bytes.make (if exec then size else stored) '\000' in
    Bytes.blit s.Section.data 0 win 0 stored;
    {
      seg_base = s.Section.vaddr + lb;
      seg_size = size;
      seg_perm = s.Section.perm;
      win_base = s.Section.vaddr + lb;
      win;
      pages =
        (if exec then Array.make ((size lsr page_bits) + 1) no_page else [||]);
    }
  in
  let stack_top = stack_base + stack_size in
  let stack =
    {
      seg_base = stack_base;
      seg_size = stack_size;
      seg_perm = Section.r_w;
      win_base = stack_top;
      win = Bytes.empty;
      pages = [||];
    }
  in
  let segments =
    Array.of_list
      (List.sort
         (fun a b -> compare a.seg_base b.seg_base)
         (stack :: List.map seg_of_section (List.filter (fun s -> s.Section.loaded) bin.Binary.sections)))
  in
  let routine_names = bin.Binary.dynsyms in
  let resolved =
    Array.map (fun name -> List.assoc_opt name routines) routine_names
  in
  let vm =
    {
      bin;
      cfg;
      segments;
      code_seg = no_segment;
      data_seg = no_segment;
      regs = Array.make Reg.count 0;
      sp_ = stack_top - 64;
      lr_ = 0;
      tar = 0;
      cmp_delta = 0;
      pc_ = bin.Binary.entry + lb;
      has_lr = Arch.has_link_register bin.Binary.arch;
      out_rev = [];
      steps = 0;
      fetch_faults = 0;
      cycles = 0;
      buckets = Array.make (Array.length bucket_names) 0;
      line = -1;
      line_bytes =
        (match cfg.icache with Some c -> c.Icache.line_bytes | None -> 64);
      miss_cost = (match cfg.icache with Some c -> c.Icache.miss_cost | None -> 0);
      trap_hits = 0;
      unwind_count = 0;
      ra_count = 0;
      state = `Running;
      icache = Option.map Icache.create cfg.icache;
      routines = resolved;
      routine_names;
    }
  in
  (* Apply run-time relocations (the loader's job under PIE). One outside
     every segment leaves the machine crashed before its first step. *)
  (if bin.Binary.pie then
     try
       List.iter
         (fun (r : Icfg_obj.Reloc.t) ->
           match r.kind with
           | Icfg_obj.Reloc.R_relative ->
               write_mem_raw vm (r.offset + lb) (r.addend + lb)
           | Icfg_obj.Reloc.R_link _ -> ())
         bin.Binary.relocs
     with Vm_stop -> ());
  (* The ppc64le loader materializes the TOC base in r2. *)
  if bin.Binary.arch = Arch.Ppc64le then
    set_reg vm Reg.toc (bin.Binary.toc_base + lb);
  vm

let run ?config ?routines bin =
  let vm = load ?config ?routines bin in
  exec_blocks vm ~nested:false;
  (* Every step but a faulting fetch paid the base cost. *)
  charge vm b_base (cost_base * (vm.steps - vm.fetch_faults));
  {
    outcome =
      (match vm.state with
      | `Halted -> Halted
      | `Crashed m -> Crashed m
      | `Running -> Crashed "stopped while running");
    output = List.rev vm.out_rev;
    steps = vm.steps;
    cycles = vm.cycles;
    icache_misses = (match vm.icache with Some ic -> Icache.misses ic | None -> 0);
    icache_accesses = (match vm.icache with Some _ -> vm.steps | None -> 0);
    trap_hits = vm.trap_hits;
    unwind_steps = vm.unwind_count;
    ra_translations = vm.ra_count;
    cycle_buckets =
      Array.to_list (Array.mapi (fun i n -> (bucket_names.(i), n)) vm.buckets);
  }
