(* Reductions over per-op latency samples.

   Percentiles are nearest-rank: the q-th percentile of n samples is the
   sample at 1-based rank ceil(q * n / 100) of the sorted sample, so every
   reported value is a measured op, never an interpolation. NaN samples
   are dropped; infinities are kept and sort last, because a failed op is
   recorded as an infinite latency: it misses every latency limit. *)

let sorted xs =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) xs) in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank, in integer arithmetic so that q * n / 100 never
   rounds across a rank boundary. *)
let rank ~n q = max 1 ((q * n + 99) / 100)

let nearest_rank a q =
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n q - 1)

(* Samples strictly above rank q: the tail a q-th percentile summarises. *)
let beyond ~n q = if n = 0 then 0 else n - rank ~n q

(* The highest reportable tail percentile needs at least this many
   samples beyond it. *)
let min_beyond = 10

type summary = {
  p50 : float;
  p95 : float option;  (** [None] when fewer than [min_beyond] samples lie beyond *)
}

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  {
    p50 = nearest_rank a 50;
    p95 = (if beyond ~n 95 >= min_beyond then Some (nearest_rank a 95) else None);
  }

(* Samples needed before p95 can be reported. *)
let min_samples_for_p95 =
  let rec go n = if beyond ~n 95 >= min_beyond then n else go (n + 1) in
  go 1

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* Where a percentile falls among the op kinds: the kind of the op at
   that rank, and the share of all samples within a factor of 1.25 of its
   value. A percentile sitting in a gap between latency clusters has few
   neighbours and flips between clusters from run to run. *)
let placement (samples : (string * float) list) q =
  let a = Array.of_list samples in
  Array.sort (fun (_, x) (_, y) -> Float.compare x y) a;
  let n = Array.length a in
  if n = 0 then ("none", 0.)
  else
    let kind, v = a.(rank ~n q - 1) in
    let near =
      Array.fold_left
        (fun acc (_, x) -> if x >= v /. 1.25 && x <= v *. 1.25 then acc + 1 else acc)
        0 a
    in
    (kind, 100. *. float_of_int near /. float_of_int n)
