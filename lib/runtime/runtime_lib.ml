module Abi = Icfg_obj.Abi

module Ra_map = struct
  (* Parallel sorted arrays for binary search. *)
  type t = { keys : int array; vals : int array; exact_only : bool }

  (* The sort array is seeded with a static pair and filled afterwards:
     [Array.of_list] would seed it with the first (young) pair, and the
     runtime empties the minor heap before it builds an array of more
     than 256 elements from a young seed. [Array.sort] is unstable, so
     the input order still decides between equal keys. *)
  let of_pairs ?(exact_only = false) pairs =
    let a = Array.make (List.length pairs) (0, 0) in
    List.iteri (fun i p -> a.(i) <- p) pairs;
    Array.sort (fun (k1, _) (k2, _) -> compare k1 k2) a;
    { keys = Array.map fst a; vals = Array.map snd a; exact_only }

  let size t = Array.length t.keys
  let pairs t = List.init (size t) (fun i -> (t.keys.(i), t.vals.(i)))

  (* Floor lookup: greatest key <= pc. *)
  let floor t pc =
    let lo = ref 0 and hi = ref (Array.length t.keys - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t.keys.(mid) <= pc then (
        res := mid;
        lo := mid + 1)
      else hi := mid - 1
    done;
    !res

  (* Relocated blocks are at most this far from their mapped start; a floor
     hit further away than this is outside the mapped region. *)
  let max_block_span = 65536

  let translate t pc =
    if Array.length t.keys = 0 then pc
    else
      let i = floor t pc in
      if i < 0 then pc
      else if t.exact_only && t.keys.(i) <> pc then pc
      else if pc - t.keys.(i) > max_block_span then pc
      else
        (* Exact keys (return addresses) translate exactly; a PC inside a
           mapped block translates to the block's original start, which is
           always inside the original function — sufficient for FDE and
           findfunc lookups. *)
        t.vals.(i)

  (* Compact encoding: a 16-byte header with the key and value bases,
     then 8 bytes per pair (two base-relative u32 deltas). *)
  let encode t =
    let n = size t in
    if n = 0 then Bytes.create 0
    else begin
      let kbase = Array.fold_left min max_int t.keys in
      let vbase = Array.fold_left min max_int t.vals in
      let b = Bytes.make (16 + (8 * n)) '\000' in
      Bytes.set_int64_le b 0 (Int64.of_int kbase);
      Bytes.set_int64_le b 8 (Int64.of_int vbase);
      for i = 0 to n - 1 do
        Bytes.set_int32_le b (16 + (8 * i)) (Int32.of_int (t.keys.(i) - kbase));
        Bytes.set_int32_le b (16 + (8 * i) + 4) (Int32.of_int (t.vals.(i) - vbase))
      done;
      b
    end

  let decode b =
    if Bytes.length b < 16 then of_pairs []
    else
      let kbase = Int64.to_int (Bytes.get_int64_le b 0) in
      let vbase = Int64.to_int (Bytes.get_int64_le b 8) in
      let n = (Bytes.length b - 16) / 8 in
      of_pairs
        (List.init n (fun i ->
             ( kbase + Int32.to_int (Bytes.get_int32_le b (16 + (8 * i))),
               vbase + Int32.to_int (Bytes.get_int32_le b (16 + (8 * i) + 4)) )))
end

let go_walk_routine () =
  let routine vm =
    match Vm.find_symbol vm "runtime.findfunc" with
    | None -> Vm.abort vm "go traceback: no runtime.findfunc"
    | Some findfunc ->
        let frames = Vm.frames vm in
        let n = List.length frames in
        List.iteri
          (fun i (pc_rt, _sp) ->
            if pc_rt = -1 then (
              if i < n - 1 || i = 0 then
                Vm.abort vm "go traceback: missing frame info")
            else
              (* Go passes runtime PCs: the functab was relocated by the
                 loader, so entries are runtime addresses too. *)
              let id = Vm.call_function vm ~addr:findfunc ~args:[ pc_rt ] in
              if id >= 0 then Vm.emit_output vm id
              else if i < n - 1 then
                Vm.abort vm
                  (Printf.sprintf "go traceback: unknown pc 0x%x in frame %d"
                     pc_rt i))
          frames
  in
  (Abi.go_walk, routine)

let count_routine counters ~key_of =
  let routine vm =
    let site = Vm.pc vm - Vm.load_base vm in
    let key = key_of site in
    Hashtbl.replace counters key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counters key))
  in
  (Abi.count, routine)

let translate_r0_routine map =
  let routine vm =
    (* The RA map is keyed by link-time addresses; the PC argument is a
       runtime address. *)
    let lb = Vm.load_base vm in
    let v = Vm.reg vm Icfg_isa.Reg.r0 in
    Vm.count_ra_translation vm;
    Vm.set_reg vm Icfg_isa.Reg.r0 (Ra_map.translate map (v - lb) + lb)
  in
  (Abi.translate_r0, routine)

let empty_routine () = (Abi.empty_payload, fun _ -> ())
let standard () = [ go_walk_routine (); empty_routine () ]
