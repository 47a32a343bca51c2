type ra_location = Ra_on_stack of int | Ra_in_lr

type fde = {
  func_start : int;
  func_end : int;
  frame_size : int;
  ra_loc : ra_location;
  landing_pads : (int * int * int) list;
}

(* FDEs sorted by start address for binary search. *)
type t = fde array

let empty = [||]

(* Seeded with a static FDE, not the first (young) one: the runtime
   empties the minor heap before it builds an array of more than 256
   elements from a young seed. *)
let of_fdes l =
  let a =
    Array.make (List.length l)
      {
        func_start = 0;
        func_end = 0;
        frame_size = 0;
        ra_loc = Ra_in_lr;
        landing_pads = [];
      }
  in
  List.iteri (fun i f -> a.(i) <- f) l;
  Array.sort (fun x y -> compare x.func_start y.func_start) a;
  a

let add t fde = of_fdes (fde :: Array.to_list t)

let find t pc =
  let lo = ref 0 and hi = ref (Array.length t - 1) and res = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let f = t.(mid) in
    if pc < f.func_start then hi := mid - 1
    else if pc >= f.func_end then lo := mid + 1
    else (
      res := Some f;
      lo := !hi + 1)
  done;
  !res

let fdes t = Array.to_list t
let handler_for fde ~pc =
  List.find_map
    (fun (lo, hi, h) -> if pc >= lo && pc < hi then Some h else None)
    fde.landing_pads

let pp ppf t =
  Array.iter
    (fun f ->
      Format.fprintf ppf "FDE [0x%x, 0x%x) frame=%d ra=%s pads=%d@." f.func_start
        f.func_end f.frame_size
        (match f.ra_loc with
        | Ra_on_stack o -> Printf.sprintf "sp+%d" o
        | Ra_in_lr -> "lr")
        (List.length f.landing_pads))
    t
