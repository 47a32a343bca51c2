module Baseline = Icfg_baselines.Baseline
module Trace = Icfg_core.Trace
module Corpus = Icfg_workloads.Corpus

type cls =
  | Verified
  | Diverged
  | Refused of string
  | Crashed of string

type row = {
  row_approach : string;
  row_cells : int;
  row_verified : int;
  row_diverged : int;
  row_refused : int;
  row_crashed : int;
  row_refusals : (string * int) list;
  row_p50_ns : float;
  row_p95_ns : float;
}

type t = {
  m_seed : int;
  m_count : int;
  m_rows : row list;
}

let pass_rate_pct r =
  if r.row_cells = 0 then 0.
  else 100. *. float_of_int r.row_verified /. float_of_int r.row_cells

(* Nearest-rank percentile. Non-finite samples are dropped before
   ranking: the polymorphic [compare] orders [nan] arbitrarily against
   other floats, so one poisoned timing cell would otherwise silently
   shift every rank. The sample is sorted once into an array and each
   query indexes directly — O(1) per rank instead of [List.nth]'s O(n). *)
let sorted_sample xs =
  let a = Array.of_list (List.filter Float.is_finite xs) in
  Array.sort Float.compare a;
  a

let rank_of_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    a.(max 0 (min (n - 1) i))

let percentile p xs = rank_of_sorted (sorted_sample xs) p

let classify ~orig outcome =
  match outcome with
  | Baseline.Refused reason -> Refused (Baseline.refusal_key reason)
  | Baseline.Rewritten rw -> (
      match Runner.judge ~orig (Runner.run_rewritten rw) with
      | Runner.Verified _ -> Verified
      | Runner.Diverged -> Diverged
      | Runner.Crashed m -> Crashed m)

let cls_to_string = function
  | Verified -> "verified"
  | Diverged -> "diverged"
  | Refused k -> "refused:" ^ k
  | Crashed m -> "crashed:" ^ m

let cls_of_string s =
  let tail p = String.sub s (String.length p) (String.length s - String.length p) in
  let has p =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  match s with
  | "verified" -> Some Verified
  | "diverged" -> Some Diverged
  | _ when has "refused:" -> Some (Refused (tail "refused:"))
  | _ when has "crashed:" -> Some (Crashed (tail "crashed:"))
  | _ -> None

(* One (binary, approach) cell, exceptions contained: an adversarial
   shape may defeat a rewriter outright (e.g. an encoder range
   overflow); that is a [Crashed] cell, not the end of the sweep — and
   in the serve daemon, a typed error, not a dead process. *)
let eval_cell ~orig ~approach ?cache bin =
  let t0 = Icfg_core.Metrics.now_ns () in
  let c =
    match Runner.drive ~approach ?cache bin with
    | None -> Crashed ("unknown approach: " ^ approach)
    | Some outcome -> classify ~orig outcome
    | exception e -> Crashed (Printexc.to_string e)
  in
  let ns = Int64.to_float (Int64.sub (Icfg_core.Metrics.now_ns ()) t0) in
  (match c with
  | Verified -> Trace.add "corpus.verified" 1
  | Diverged -> Trace.add "corpus.diverged" 1
  | Refused _ -> Trace.add "corpus.refused" 1
  | Crashed _ -> Trace.add "corpus.crashed" 1);
  (ns, c)

let row_of ~approach cells =
  let count pred = List.length (List.filter pred cells) in
  let refusals =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, c) -> match c with Refused k -> Some k | _ -> None)
         cells)
  in
  let refusal_count k =
    count (fun (_, c) -> match c with Refused k' -> k' = k | _ -> false)
  in
  let times = sorted_sample (List.map fst cells) in
  {
    row_approach = approach;
    row_cells = List.length cells;
    row_verified = count (fun (_, c) -> c = Verified);
    row_diverged = count (fun (_, c) -> c = Diverged);
    row_refused = count (fun (_, c) -> match c with Refused _ -> true | _ -> false);
    row_crashed = count (fun (_, c) -> match c with Crashed _ -> true | _ -> false);
    row_refusals = List.map (fun k -> (k, refusal_count k)) refusals;
    row_p50_ns = rank_of_sorted times 0.50;
    row_p95_ns = rank_of_sorted times 0.95;
  }

let run ?(seed = 7) ?(count = 300) ?(progress = fun _ -> ()) () =
  let entries = Corpus.generate ~seed ~count in
  (* Cells are evaluated serially in corpus order. *)
  let cells = Hashtbl.create 8 in
  List.iter
    (fun (name, _) -> Hashtbl.replace cells name [])
    Baseline.approaches;
  List.iteri
    (fun i e ->
      let bin = Corpus.build e in
      let orig = Runner.run_original bin in
      List.iter
        (fun (name, _) ->
          let cell = eval_cell ~orig ~approach:name bin in
          Hashtbl.replace cells name (cell :: Hashtbl.find cells name))
        Baseline.approaches;
      progress (i + 1))
    entries;
  let rows =
    List.map
      (fun (name, _) ->
        row_of ~approach:name (List.rev (Hashtbl.find cells name)))
      Baseline.approaches
  in
  { m_seed = seed; m_count = count; m_rows = rows }

let render m =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "== Corpus robustness matrix (seed %d, %d binaries) ==\n" m.m_seed
    m.m_count;
  Printf.bprintf b "  %-16s %6s %9s %9s %8s %8s %10s %10s\n" "approach"
    "pass%" "verified" "diverged" "refused" "crashed" "p50(ms)" "p95(ms)";
  List.iter
    (fun r ->
      Printf.bprintf b "  %-16s %6.1f %9d %9d %8d %8d %10.2f %10.2f\n"
        r.row_approach (pass_rate_pct r) r.row_verified r.row_diverged
        r.row_refused r.row_crashed
        (r.row_p50_ns /. 1e6)
        (r.row_p95_ns /. 1e6))
    m.m_rows;
  let with_refusals =
    List.filter (fun r -> r.row_refusals <> []) m.m_rows
  in
  if with_refusals <> [] then begin
    Buffer.add_string b "  refusals:\n";
    List.iter
      (fun r ->
        Printf.bprintf b "    %-16s %s\n" r.row_approach
          (String.concat " "
             (List.map
                (fun (k, n) -> Printf.sprintf "%s=%d" k n)
                r.row_refusals)))
      with_refusals
  end;
  Buffer.contents b
