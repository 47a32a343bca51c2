(* icfg-bench: run one workload and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the last stdout line holds the end-to-end metrics of
   an untraced run. With [--trace 1] it holds the per-layer metrics: the
   run is split into an untraced half and a traced half, whose
   throughputs give the tracing overhead. The line before it records the
   machine's core count, the seed, the op count, each op kind's share
   and where p50 and p95 fall. *)

open Icfg_bench

(* Setup is timed this many times and the median reported, so that
   work moved into setup shows without one slow setup deciding it. *)
let setup_reps = 3

let timed_setup setup =
  let rec go n times =
    Gc.compact ();
    let t0 = Util.now_ns () in
    let env = setup () in
    let times = float_of_int (Util.now_ns () - t0) /. 1e9 :: times in
    if n > 1 then go (n - 1) times else (env, times)
  in
  let env, times = go setup_reps [] in
  (env, Stat.nearest_rank (Stat.sorted times) 50)

let measure ~workload ~seed ~seconds ~trace ~setup ~run ~det ~layers =
  let env, setup_s = timed_setup setup in
  let rng = Random.State.make [| seed |] in
  if not trace then begin
    let ph = run env ~rng ~seconds ~min_ops:Stat.min_samples_for_p95 ~traced:false in
    print_endline (Report.info_line ~workload ~seed ph);
    print_endline
      (Report.result_line ~catalogue:Report.end_to_end ~attempted:ph.Util.ops
         ~failed:ph.Util.failed
         (Report.e2e_metrics ~setup_s ph @ Report.det_metrics (det env)))
  end
  else begin
    let half = seconds /. 2. in
    let u = run env ~rng ~seconds:half ~min_ops:0 ~traced:false in
    let t = run env ~rng ~seconds:half ~min_ops:0 ~traced:true in
    let overhead = 100. *. (1. -. (Report.ops_per_s t /. Report.ops_per_s u)) in
    print_endline (Report.info_line ~workload ~seed u);
    print_endline
      (Report.result_line ~catalogue:Report.per_layer
         ~attempted:(u.Util.ops + t.Util.ops)
         ~failed:(u.Util.failed + t.Util.failed)
         (("trace.overhead_pct", overhead) :: layers env ~untraced:u ~traced:t))
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload cold-corpus|edit-loop|serve-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds <= 0. then usage ();
  match workload with
  | "cold-corpus" ->
      measure ~workload ~seed ~seconds ~trace
        ~setup:(fun () -> Cold_corpus.setup ())
        ~run:(Cold_corpus.run ?tamper:None) ~det:Cold_corpus.det
        ~layers:Cold_corpus.layers
  | "edit-loop" ->
      measure ~workload ~seed ~seconds ~trace
        ~setup:(fun () -> Edit_loop.setup ())
        ~run:(Edit_loop.run ?tamper:None) ~det:Edit_loop.det ~layers:Edit_loop.layers
  | "serve-mixed" ->
      measure ~workload ~seed ~seconds ~trace
        ~setup:(fun () -> Serve_mixed.setup ())
        ~run:(Serve_mixed.run ?tamper:None) ~det:Serve_mixed.det
        ~layers:Serve_mixed.layers
  | _ -> usage ()
