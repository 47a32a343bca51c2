let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let max_f = function [] -> 0. | l -> List.fold_left max neg_infinity l
let min_f = function [] -> 0. | l -> List.fold_left min infinity l

(* NaN/infinity reach this formatter when a ratio was computed by hand from
   an empty bench (0/0); render them as "n/a" rather than "+nan%". *)
let pct v = if Float.is_finite v then Printf.sprintf "%+.2f%%" v else "n/a"

(* An empty or degenerate base (no cycles measured, empty bench) has no
   meaningful growth ratio; define it as 0 rather than dividing by zero —
   the old [max 1 base] clamp reported value*100 for base = 0. *)
let ratio_pct ~base ~value =
  if base <= 0 then 0.
  else 100. *. float_of_int (value - base) /. float_of_int base

(* Plain quotient of two counts, 0 on an empty denominator: trampolines per
   CFL block, trap share and the like. *)
let ratio ~den ~num =
  if den <= 0 then 0. else float_of_int num /. float_of_int den

(* [share ~total ~part] as a percentage of [total], 0 when nothing was
   counted at all. *)
let share ~total ~part =
  if total <= 0 then 0. else 100. *. float_of_int part /. float_of_int total

(* Hand-rolled JSON (no JSON dependency): the string-literal escape every
   report writer shares. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
