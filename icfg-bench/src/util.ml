(* Clock, seeded ordering, process facts, and the per-phase record every
   workload fills. *)

module Trace = Icfg_core.Trace

(* Monotonic: the same clock the pipeline's own spans use. *)
let now_ns () = Int64.to_int (Icfg_core.Metrics.now_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let nproc () = Domain.recommended_domain_count ()

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

(* Named float sums: the per-layer accumulator. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 64
let get (a : acc) k = Option.value ~default:0. (Hashtbl.find_opt a k)
let add (a : acc) k v = Hashtbl.replace a k (get a k +. v)

(* One block of ops: its time on the clock and its samples. *)
type block = { b_clock_ns : int; b_samples : (string * float) list }

(* One measured phase: op samples, time on the clock, layer sums. *)
type phase = {
  mutable samples : (string * float) list;
      (** (op kind, latency in ms); a failed op is [infinity] *)
  mutable ops : int;
  mutable failed : int;
  mutable clock_ns : int;  (** time on the clock, summed over ops or rounds *)
  mutable blocks : block list;
  mutable wall_ns : int;  (** the phase's wall time, checks included *)
  layers : acc;
}

let phase () =
  {
    samples = [];
    ops = 0;
    failed = 0;
    clock_ns = 0;
    blocks = [];
    wall_ns = 0;
    layers = acc ();
  }

let record ph ~kind ~ns ~ok =
  ph.ops <- ph.ops + 1;
  if not ok then ph.failed <- ph.failed + 1;
  ph.samples <- (kind, if ok then ms_of_ns ns else infinity) :: ph.samples

let kind_samples ph kind =
  List.filter_map (fun (k, v) -> if k = kind then Some v else None) ph.samples

(* Pipeline span paths (as [Trace.rows] and the daemon's [stage.*]
   histograms name them) and the per-layer metric each one feeds. *)
let stage_layers =
  [
    ("parse", "parse.ms");
    ("parse/pass1", "parse.pass1_ms");
    ("parse/finalize", "parse.finalize_ms");
    ("parse/func-ptr", "parse.fptr_ms");
    ("parse/func-ptr-2", "parse.fptr_ms");
    ("rewrite", "rewriter.ms");
    ("rewrite/relocate", "rewriter.relocate_ms");
    ("rewrite/place:plan", "rewriter.plan_ms");
    ("rewrite/layout:instr", "rewriter.layout_ms");
    ("rewrite/layout:jtnew", "rewriter.layout_ms");
    ("rewrite/encode:instr", "rewriter.encode_ms");
    ("rewrite/encode:jtnew", "rewriter.encode_ms");
    ("rewrite/emit", "rewriter.emit_ms");
  ]

(* Add a trace's stage spans (ns) into [a] under their layer names. *)
let add_stage_rows a tr =
  List.iter
    (fun (r : Trace.row) ->
      match List.assoc_opt r.Trace.r_path stage_layers with
      | Some name -> add a name (float_of_int r.Trace.r_ns)
      | None -> ())
    (Trace.rows tr)

(* Run a [Runner.run_*] call under a fresh trace, folding the Vm run's
   time and counters into [a]. *)
let vm_call a f =
  let tr = Trace.create () in
  let t0 = now_ns () in
  let r = Trace.with_current tr f in
  add a "vm.ns" (float_of_int (now_ns () - t0));
  add a "vm.runs" 1.;
  List.iter
    (fun (k, v) ->
      let v = float_of_int v in
      match String.split_on_char '/' k with
      | [ "vm"; _; "steps" ] -> add a "vm.steps" v
      | [ "vm"; _; "traps" ] -> add a "vm.traps" v
      | [ "vm"; _; "icache-misses" ] -> add a "vm.icache_misses" v
      | [ "vm"; _; "icache-hits" ] -> add a "vm.icache_hits" v
      | _ -> ())
    (Trace.counters tr);
  r

(* The Vm layer's per-layer metrics from sums gathered by [vm_call] (or
   the daemon's equivalents, stored under the same names). *)
let vm_layer a =
  let runs = get a "vm.runs" and ns = get a "vm.ns" in
  let accesses = get a "vm.icache_misses" +. get a "vm.icache_hits" in
  let per x y = if y > 0. then x /. y else 0. in
  [
    ("vm.run_ms", per ns runs /. 1e6);
    ("vm.steps_per_s", per (get a "vm.steps") (ns /. 1e9));
    ("vm.trap_hits", per (get a "vm.traps") runs);
    ("vm.icache_miss_pct", 100. *. per (get a "vm.icache_misses") accesses);
  ]

(* Per-op means of stage layer sums (ns in, ms out). *)
let stage_layer a ~ops =
  List.sort_uniq compare (List.map snd stage_layers)
  |> List.map (fun name ->
         (name, if ops > 0 then get a name /. 1e6 /. float_of_int ops else 0.))

(* Per-op rewrite counts, from the rewrite's own stats. *)
let add_rewrite_counts a (rw : Icfg_core.Rewriter.t) =
  let s = rw.Icfg_core.Rewriter.rw_stats in
  add a "parse.funcs_per_op" (float_of_int s.s_funcs_total);
  add a "rewriter.trampolines" (float_of_int s.s_trampolines);
  add a "rewriter.trap_trampolines" (float_of_int s.s_trap_trampolines);
  add a "rewriter.cfl_blocks" (float_of_int s.s_cfl_blocks)

let count_layers = [ "parse.funcs_per_op"; "rewriter.trampolines"; "rewriter.trap_trampolines"; "rewriter.cfl_blocks" ]

let per_op a ~ops names =
  List.map (fun k -> (k, if ops > 0 then get a k /. float_of_int ops else 0.)) names

(* Collect the heap off the clock before an op, so no op pays for
   garbage an earlier one left: a one-shot rewrite process starts from a
   fresh heap too. Without it, the major-GC debt of one 35-40 MiB image
   lands on whichever small op follows it. *)
let settle () = Gc.full_major ()

(* The fastest quarter of a phase's blocks (by time on the clock),
   widened until they hold enough samples for p95: their pooled samples
   and their time on the clock. Every block holds the same ops, so its
   clock time measures how fast the host ran it. On a shared 2-vCPU VM
   the host's speed swings by up to 40% over seconds to minutes, and these
   swings, not the program, dominated the run-to-run spread of whole-run
   figures; the fastest blocks report the program at the speed an
   uncontended host gives it. *)
let kept ph =
  let bs = List.sort (fun a b -> compare a.b_clock_ns b.b_clock_ns) ph.blocks in
  let quarter = (List.length bs + 3) / 4 in
  let rec take i n acc = function
    | b :: rest when i < quarter || n < Stat.min_samples_for_p95 ->
        take (i + 1) (n + List.length b.b_samples) (b :: acc) rest
    | _ -> acc
  in
  let keep = take 0 0 [] bs in
  ( List.concat_map (fun b -> b.b_samples) keep,
    List.fold_left (fun n b -> n + b.b_clock_ns) 0 keep )

(* Run whole blocks until [seconds] have passed and the kept blocks hold
   at least [min_ops] samples. Whole blocks keep each op kind's share of
   the sample exact, so a percentile cannot drift between clusters. *)
let run_blocks ph ~seconds ~min_ops block =
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  (* A host too slow to reach [min_ops] still ends the run in time. *)
  let hard = t0 + int_of_float (4. *. seconds *. 1e9) in
  let rec go () =
    let clock = ph.clock_ns and ops = ph.ops in
    block ();
    let fresh = List.filteri (fun i _ -> i < ph.ops - ops) ph.samples in
    ph.blocks <- { b_clock_ns = ph.clock_ns - clock; b_samples = fresh } :: ph.blocks;
    let now = now_ns () in
    if now < hard && (now < deadline || List.length (fst (kept ph)) < min_ops) then go ()
  in
  go ();
  ph.wall_ns <- now_ns () - t0

(* Share of [total] not covered by [covered], in percent. *)
let uncovered_pct ~total covered =
  if total > 0. then 100. *. (total -. covered) /. total else 0.
