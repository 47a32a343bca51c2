open Icfg_isa
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Ehframe = Icfg_obj.Ehframe

type cost_model = {
  base : int;
  mem : int;
  mul : int;
  branch_taken : int;
  indirect : int;
  callrt : int;
  trap : int;
}

let default_costs =
  { base = 1; mem = 1; mul = 2; branch_taken = 1; indirect = 2; callrt = 12; trap = 4000 }

type config = {
  load_base : int;
  stack_base : int;
  stack_size : int;
  max_steps : int;
  costs : cost_model;
  icache : Icache.config option;
  trap_map : (int, int) Hashtbl.t;
  translate : (int -> int) option;
  go_translate : (int -> int) option;
  profile : (int, int) Hashtbl.t option;
  compiled_unwind : bool;
}

let default_config () =
  {
    load_base = 0;
    stack_base = 0x7E000000;
    stack_size = 1 lsl 20;
    max_steps = 200_000_000;
    costs = default_costs;
    icache = None;
    trap_map = Hashtbl.create 16;
    translate = None;
    go_translate = None;
    profile = None;
    compiled_unwind = false;
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
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* A data segment holds a copy of its section's stored prefix only: bytes
   past [seg_bytes] up to [seg_size] read as zero, and the first write
   there replaces [seg_bytes] by the whole segment. *)
type segment = {
  seg_base : int;
  seg_size : int;
  mutable seg_bytes : Bytes.t;
  seg_perm : Section.perm;
  seg_decode : (Insn.t * int) option array;
      (** per-offset decode cache (code never changes during execution) *)
}

let seg_end s = s.seg_base + s.seg_size

let materialise s =
  let b = Bytes.make s.seg_size '\000' in
  Bytes.blit s.seg_bytes 0 b 0 (Bytes.length s.seg_bytes);
  s.seg_bytes <- b

type t = {
  bin : Binary.t;
  cfg : config;
  segments : segment array;  (** sorted by base *)
  mutable last_seg : int;  (** cache of the last segment hit *)
  regs : int array;
  mutable sp_ : int;
  mutable lr_ : int;
  mutable tar : int;
  mutable cmp_delta : int;
  mutable pc_ : int;
  mutable out_rev : int list;
  mutable steps : int;
  mutable cycles : int;
  buckets : int array;  (** per-cost-bucket cycle attribution *)
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

let charge vm bucket n =
  vm.cycles <- vm.cycles + n;
  vm.buckets.(bucket) <- vm.buckets.(bucket) + n

let find_segment vm addr =
  let segs = vm.segments in
  let cached = segs.(vm.last_seg) in
  if addr >= cached.seg_base && addr < seg_end cached then Some cached
  else
    let lo = ref 0 and hi = ref (Array.length segs - 1) and res = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s = segs.(mid) in
      if addr < s.seg_base then hi := mid - 1
      else if addr >= seg_end s then lo := mid + 1
      else (
        res := Some s;
        vm.last_seg <- mid;
        lo := !hi + 1)
    done;
    !res

let sign_extend v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

let[@inline] load_word b off (w : Insn.width) =
  match w with
  | W8 -> sign_extend (Bytes.get_uint8 b off) 8
  | W16 -> sign_extend (Bytes.get_uint16_le b off) 16
  | W32 -> Int32.to_int (Bytes.get_int32_le b off)
  | W64 -> Int64.to_int (Bytes.get_int64_le b off)

let read_mem vm addr (w : Insn.width) =
  let n = Insn.width_bytes w in
  match find_segment vm addr with
  | Some s when addr + n <= seg_end s ->
      let off = addr - s.seg_base in
      if off + n <= Bytes.length s.seg_bytes then load_word s.seg_bytes off w
      else
        (* Into the zero tail: read a zero-padded copy of the word. *)
        let t = Bytes.make n '\000' in
        let stored = Bytes.length s.seg_bytes - off in
        if stored > 0 then Bytes.blit s.seg_bytes off t 0 stored;
        load_word t 0 w
  | _ -> crash vm (Printf.sprintf "read from unmapped address 0x%x" addr)

let write_mem vm addr (w : Insn.width) v =
  let n = Insn.width_bytes w in
  match find_segment vm addr with
  | Some s when addr + n <= seg_end s ->
      if not s.seg_perm.Section.write then
        crash vm (Printf.sprintf "write to read-only address 0x%x" addr);
      let off = addr - s.seg_base in
      if off + n > Bytes.length s.seg_bytes then materialise s;
      let b = s.seg_bytes in
      (match w with
      | W8 -> Bytes.set_uint8 b off (v land 0xff)
      | W16 -> Bytes.set_uint16_le b off (v land 0xffff)
      | W32 -> Bytes.set_int32_le b off (Int32.of_int v)
      | W64 -> Bytes.set_int64_le b off (Int64.of_int v))
  | _ -> crash vm (Printf.sprintf "write to unmapped address 0x%x" addr)

(* Loader-time write: relocations may target read-only sections (the loader
   relocates before write-protecting). *)
let write_mem_raw vm addr v =
  match find_segment vm addr with
  | Some s when addr + 8 <= seg_end s ->
      if addr + 8 - s.seg_base > Bytes.length s.seg_bytes then materialise s;
      Bytes.set_int64_le s.seg_bytes (addr - s.seg_base) (Int64.of_int v)
  | _ -> crash vm (Printf.sprintf "relocation outside any segment: 0x%x" addr)

let fetch vm addr =
  match find_segment vm addr with
  | Some s when s.seg_perm.Section.execute -> (
      let off = addr - s.seg_base in
      match s.seg_decode.(off) with
      | Some cached -> cached
      | None ->
          let d = Encode.decode_bytes vm.bin.Binary.arch s.seg_bytes ~pos:off in
          s.seg_decode.(off) <- Some d;
          d)
  | Some _ -> crash vm (Printf.sprintf "execute non-executable address 0x%x" addr)
  | None -> crash vm (Printf.sprintf "execute unmapped address 0x%x" addr)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let reg vm r = vm.regs.(Reg.index r)
let set_reg vm r v = vm.regs.(Reg.index r) <- v
let pc vm = vm.pc_
let sp vm = vm.sp_
let lr vm = vm.lr_
let load_base vm = if vm.bin.Binary.pie then vm.cfg.load_base else 0
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

let dwarf_unwind_step_cost = 60
let compiled_unwind_step_cost = 6 (* frdwarf-style compiled unwind recipes *)

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
  let exc = vm.regs.(Reg.index Reg.r0) in
  let rec go pc_rt sp lr depth =
    if depth > 512 then crash vm "unwind: too many frames";
    vm.unwind_count <- vm.unwind_count + 1;
    charge vm b_unwind
      (if vm.cfg.compiled_unwind then compiled_unwind_step_cost
       else dwarf_unwind_step_cost);
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
            vm.regs.(Reg.index Reg.r0) <- exc
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

let operand_value vm (o : Insn.operand) =
  match o with Reg r -> vm.regs.(Reg.index r) | Imm n -> n

let base_value vm = function
  | Insn.BReg r -> vm.regs.(Reg.index r)
  | Insn.BSp -> vm.sp_

let cond_holds delta (c : Insn.cond) =
  match c with
  | Eq -> delta = 0
  | Ne -> delta <> 0
  | Lt -> delta < 0
  | Le -> delta <= 0
  | Gt -> delta > 0
  | Ge -> delta >= 0

let has_lr vm = Arch.has_link_register vm.bin.Binary.arch

let do_call vm ~retaddr ~target =
  (if has_lr vm then vm.lr_ <- retaddr
   else (
     vm.sp_ <- vm.sp_ - 8;
     write_mem vm vm.sp_ W64 retaddr));
  vm.pc_ <- target

let step vm =
  if vm.steps >= vm.cfg.max_steps then crash vm "timeout: max steps exceeded";
  vm.steps <- vm.steps + 1;
  let pc0 = vm.pc_ in
  (match vm.cfg.profile with
  | Some tbl ->
      let key = pc0 - load_base vm in
      if Hashtbl.mem tbl key then
        Hashtbl.replace tbl key (1 + Hashtbl.find tbl key)
  | None -> ());
  (match vm.icache with
  | Some ic ->
      if Icache.access ic pc0 then
        charge vm b_icache
          (match vm.cfg.icache with Some c -> c.Icache.miss_cost | None -> 0)
  | None -> ());
  let insn, len = fetch vm pc0 in
  let c = vm.cfg.costs in
  charge vm b_base c.base;
  let next = pc0 + len in
  let setr r v = vm.regs.(Reg.index r) <- v in
  let getr r = vm.regs.(Reg.index r) in
  match insn with
  | Nop -> vm.pc_ <- next
  | Halt ->
      vm.state <- `Halted;
      raise Vm_stop
  | Illegal -> crash vm (Printf.sprintf "illegal instruction at 0x%x" pc0)
  | Trap -> (
      vm.trap_hits <- vm.trap_hits + 1;
      charge vm b_trap c.trap;
      let link = pc0 - load_base vm in
      match Hashtbl.find_opt vm.cfg.trap_map link with
      | Some target -> vm.pc_ <- target + load_base vm
      | None -> crash vm (Printf.sprintf "trap without mapping at 0x%x" link))
  | Mov (r, o) ->
      setr r (operand_value vm o);
      vm.pc_ <- next
  | Movhi (r, n) ->
      setr r (n lsl 16);
      vm.pc_ <- next
  | Orlo (r, n) ->
      setr r (getr r lor (n land 0xffff));
      vm.pc_ <- next
  | Movabs (r, n) ->
      setr r n;
      vm.pc_ <- next
  | Add (r, o) ->
      setr r (getr r + operand_value vm o);
      vm.pc_ <- next
  | Sub (r, o) ->
      setr r (getr r - operand_value vm o);
      vm.pc_ <- next
  | Mul (r, o) ->
      charge vm b_mul c.mul;
      setr r (getr r * operand_value vm o);
      vm.pc_ <- next
  | And_ (r, o) ->
      setr r (getr r land operand_value vm o);
      vm.pc_ <- next
  | Or_ (r, o) ->
      setr r (getr r lor operand_value vm o);
      vm.pc_ <- next
  | Xor (r, o) ->
      setr r (getr r lxor operand_value vm o);
      vm.pc_ <- next
  | Shl (r, n) ->
      setr r (getr r lsl n);
      vm.pc_ <- next
  | Shr (r, n) ->
      setr r (getr r asr n);
      vm.pc_ <- next
  | Cmp (r, o) ->
      vm.cmp_delta <- getr r - operand_value vm o;
      vm.pc_ <- next
  | Load (w, rd, b, d) ->
      charge vm b_mem c.mem;
      setr rd (read_mem vm (base_value vm b + d) w);
      vm.pc_ <- next
  | Store (w, b, d, rs) ->
      charge vm b_mem c.mem;
      write_mem vm (base_value vm b + d) w (getr rs);
      vm.pc_ <- next
  | LoadIdx (w, rd, rb, ri, s) ->
      charge vm b_mem c.mem;
      setr rd (read_mem vm (getr rb + (getr ri * s)) w);
      vm.pc_ <- next
  | Lea (r, d) ->
      setr r (pc0 + d);
      vm.pc_ <- next
  | AddSp n ->
      vm.sp_ <- vm.sp_ + n;
      vm.pc_ <- next
  | Jmp d ->
      charge vm b_branch c.branch_taken;
      vm.pc_ <- pc0 + d
  | Jcc (cond, d) ->
      if cond_holds vm.cmp_delta cond then (
        charge vm b_branch c.branch_taken;
        vm.pc_ <- pc0 + d)
      else vm.pc_ <- next
  | Call d ->
      charge vm b_branch c.branch_taken;
      do_call vm ~retaddr:next ~target:(pc0 + d)
  | IndJmp r ->
      charge vm b_indirect c.indirect;
      vm.pc_ <- getr r
  | IndCall r ->
      charge vm b_indirect c.indirect;
      do_call vm ~retaddr:next ~target:(getr r)
  | IndCallMem (b, d) ->
      charge vm b_mem c.mem;
      charge vm b_indirect c.indirect;
      let target = read_mem vm (base_value vm b + d) W64 in
      do_call vm ~retaddr:next ~target
  | Ret ->
      charge vm b_branch c.branch_taken;
      if has_lr vm then vm.pc_ <- vm.lr_
      else (
        let ra = read_mem vm vm.sp_ W64 in
        vm.sp_ <- vm.sp_ + 8;
        vm.pc_ <- ra)
  | CallRt idx -> (
      charge vm b_callrt c.callrt;
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
      charge vm b_indirect c.indirect;
      throw vm
  | Out r ->
      emit_output vm (getr r);
      vm.pc_ <- next
  | Mflr r ->
      setr r vm.lr_;
      vm.pc_ <- next
  | Mtlr r ->
      vm.lr_ <- getr r;
      vm.pc_ <- next
  | Mttar r ->
      vm.tar <- getr r;
      vm.pc_ <- next
  | Btar ->
      charge vm b_indirect c.indirect;
      vm.pc_ <- vm.tar
  | Adrp (r, d) ->
      setr r ((pc0 land lnot 4095) + d);
      vm.pc_ <- next
  | Addis (rd, rs, n) ->
      setr rd (getr rs + (n lsl 16));
      vm.pc_ <- next

let sentinel = 2

let call_function vm ~addr ~args =
  let saved_regs = Array.copy vm.regs in
  let saved = (vm.sp_, vm.lr_, vm.tar, vm.cmp_delta, vm.pc_) in
  List.iteri
    (fun i v ->
      if i >= List.length Reg.arg_regs then
        invalid_arg "call_function: too many arguments";
      vm.regs.(Reg.index (List.nth Reg.arg_regs i)) <- v)
    args;
  (if has_lr vm then vm.lr_ <- sentinel
   else (
     vm.sp_ <- vm.sp_ - 8;
     write_mem vm vm.sp_ W64 sentinel));
  vm.pc_ <- addr;
  (try
     while vm.pc_ <> sentinel && vm.state = `Running do
       step vm
     done
   with Vm_stop -> ());
  let result = vm.regs.(Reg.index Reg.r0) in
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
  let lb = if bin.Binary.pie then cfg.load_base else 0 in
  (* Only a data segment's stored prefix is copied; an executable one is
     materialised whole, as its decode cache is O(size) anyway. *)
  let seg_of_section (s : Section.t) =
    let seg =
      {
        seg_base = s.Section.vaddr + lb;
        seg_size = Section.size s;
        seg_bytes = Bytes.copy s.Section.data;
        seg_perm = s.Section.perm;
        seg_decode =
          (if s.Section.perm.Section.execute then
             Array.make (Section.size s) None
           else [||]);
      }
    in
    if s.Section.perm.Section.execute && seg.seg_size > Bytes.length seg.seg_bytes
    then materialise seg;
    seg
  in
  let stack =
    {
      seg_base = cfg.stack_base;
      seg_size = cfg.stack_size;
      seg_bytes = Bytes.make cfg.stack_size '\000';
      seg_perm = Section.r_w;
      seg_decode = [||];
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
      last_seg = 0;
      regs = Array.make Reg.count 0;
      sp_ = cfg.stack_base + cfg.stack_size - 64;
      lr_ = 0;
      tar = 0;
      cmp_delta = 0;
      pc_ = bin.Binary.entry + lb;
      out_rev = [];
      steps = 0;
      cycles = 0;
      buckets = Array.make (Array.length bucket_names) 0;
      trap_hits = 0;
      unwind_count = 0;
      ra_count = 0;
      state = `Running;
      icache = Option.map Icache.create cfg.icache;
      routines = resolved;
      routine_names;
    }
  in
  (* Apply run-time relocations (the loader's job under PIE). *)
  if bin.Binary.pie then
    List.iter
      (fun (r : Icfg_obj.Reloc.t) ->
        match r.kind with
        | Icfg_obj.Reloc.R_relative ->
            write_mem_raw vm (r.offset + lb) (r.addend + lb)
        | Icfg_obj.Reloc.R_link _ -> ())
      bin.Binary.relocs;
  (* The ppc64le loader materializes the TOC base in r2. *)
  if bin.Binary.arch = Arch.Ppc64le then
    vm.regs.(Reg.index Reg.toc) <- bin.Binary.toc_base + lb;
  vm

let run ?config ?routines bin =
  let vm = load ?config ?routines bin in
  (try
     while vm.state = `Running do
       step vm
     done
   with Vm_stop -> ());
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
    icache_accesses =
      (match vm.icache with Some ic -> Icache.accesses ic | None -> 0);
    trap_hits = vm.trap_hits;
    unwind_steps = vm.unwind_count;
    ra_translations = vm.ra_count;
    cycle_buckets =
      Array.to_list (Array.mapi (fun i n -> (bucket_names.(i), n)) vm.buckets);
  }
