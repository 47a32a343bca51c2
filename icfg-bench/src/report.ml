(* The result line, the metric catalogue, and the end-to-end reduction
   shared by every workload. *)

(* End-to-end metrics: [--trace 0] prints exactly these. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p95_ms", "ms");
    ("ops_per_s", "1/s");
    ("ok_pct", "%");
    ("peak_rss_mb", "MB");
    ("vm_overhead_pct", "%");
    ("size_growth_pct", "%");
    ("coverage_pct", "%");
  ]

(* Per-layer metrics: [--trace 1] prints exactly these, on every
   workload; a layer a workload's ops never reach reads 0. *)
let per_layer =
  [
    ("binfile.decode_ms", "ms");
    ("binfile.encode_ms", "ms");
    ("binfile.mb_per_op", "MB");
    ("parse.ms", "ms");
    ("parse.pass1_ms", "ms");
    ("parse.finalize_ms", "ms");
    ("parse.fptr_ms", "ms");
    ("parse.funcs_per_op", "count");
    ("rewriter.ms", "ms");
    ("rewriter.relocate_ms", "ms");
    ("rewriter.plan_ms", "ms");
    ("rewriter.layout_ms", "ms");
    ("rewriter.encode_ms", "ms");
    ("rewriter.emit_ms", "ms");
    ("rewriter.trampolines", "count");
    ("rewriter.trap_trampolines", "count");
    ("rewriter.cfl_blocks", "count");
    ("cache.hit_pct", "%");
    ("cache.bytes_reused_mb", "MB");
    ("cache.misses.identical", "count");
    ("cache.misses.function", "count");
    ("cache.misses.data", "count");
    ("cache.misses.symbol", "count");
    ("edit.identical_p50_ms", "ms");
    ("edit.function_p50_ms", "ms");
    ("edit.data_p50_ms", "ms");
    ("edit.symbol_p50_ms", "ms");
    ("vm.run_ms", "ms");
    ("vm.steps_per_s", "1/s");
    ("vm.trap_hits", "count");
    ("vm.icache_miss_pct", "%");
    ("client.full_p50_ms", "ms");
    ("client.ref_p50_ms", "ms");
    ("client.patch_p50_ms", "ms");
    ("client.replay_p50_ms", "ms");
    ("protocol.wire_kb_per_op", "KB");
    ("protocol.decode_ms", "ms");
    ("protocol.apply_patch_ms", "ms");
    ("store.hit_pct", "%");
    ("store.digest_ms", "ms");
    ("serve.needfull", "count");
    ("response_cache.hit_pct", "%");
    ("store.mb", "MB");
    ("response_cache.mb", "MB");
    ("scheduler.queue_wait_ms", "ms");
    ("scheduler.jobs_per_unique", "ratio");
    ("server.body_ms", "ms");
    ("server.unattributed_pct", "%");
    ("unattributed_pct", "%");
    ("trace.overhead_pct", "%");
  ]

(* What one rewritten binary contributes to the deterministic metrics:
   rewritten/original Vm cycles, rewritten/original loaded size, and the
   analysis coverage of its input. *)
type det = { d_cycles : float; d_size : float; d_coverage : float }

let det_of ~(orig : Icfg_harness.Runner.run) ~(rewritten : Icfg_harness.Runner.run)
    ~orig_size ~new_size ~coverage =
  {
    d_cycles = float_of_int rewritten.r_cycles /. float_of_int (max 1 orig.r_cycles);
    d_size = float_of_int new_size /. float_of_int (max 1 orig_size);
    d_coverage = coverage;
  }

let det_metrics ds =
  [
    ("vm_overhead_pct", 100. *. (Stat.geomean (List.map (fun d -> d.d_cycles) ds) -. 1.));
    ("size_growth_pct", 100. *. (Stat.geomean (List.map (fun d -> d.d_size) ds) -. 1.));
    ("coverage_pct", 100. *. Stat.mean (List.map (fun d -> d.d_coverage) ds));
  ]

(* Ops per second of clock time over the kept blocks. *)
let ops_per_s ph =
  let samples, clock_ns = Util.kept ph in
  if clock_ns > 0 then float_of_int (List.length samples) /. (float_of_int clock_ns /. 1e9)
  else 0.

(* Latency and throughput over the kept blocks; correctness over every
   op; memory of the process. *)
let e2e_metrics ~setup_s (ph : Util.phase) =
  let s = Stat.summarize (List.map snd (fst (Util.kept ph))) in
  [
    ("setup_s", setup_s);
    ("op_p50_ms", s.Stat.p50);
    ("op_p95_ms", Option.value ~default:nan s.Stat.p95);
    ("ops_per_s", ops_per_s ph);
    ( "ok_pct",
      100. *. float_of_int (ph.ops - ph.failed) /. float_of_int (max 1 ph.ops) );
    ("peak_rss_mb", Util.peak_rss_mb ());
  ]

let json_string s = Printf.sprintf "%S" s

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* The last stdout line: exactly the catalogue's metrics, in its order. *)
let result_line ~catalogue ~attempted ~failed values =
  let metric (name, unit_) =
    let v = Option.value ~default:0. (List.assoc_opt name values) in
    (name, json_obj [ ("value", json_float v); ("unit", json_string unit_) ])
  in
  json_obj
    [
      ("correct", string_of_bool (failed = 0));
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", json_obj (List.map metric catalogue));
    ]

(* The run's context, printed before the result: machine, seed, op
   count, each op kind's share, and where p50 and p95 fall. *)
let info_line ~workload ~seed (ph : Util.phase) =
  let kinds = List.sort_uniq compare (List.map fst ph.samples) in
  let kind k =
    let a = Stat.sorted (Util.kind_samples ph k) in
    json_obj
      [
        ("share_pct", json_float (100. *. float_of_int (Array.length a) /. float_of_int (max 1 ph.ops)));
        ("p10_ms", json_float (Stat.nearest_rank a 10));
        ("p50_ms", json_float (Stat.nearest_rank a 50));
        ("p90_ms", json_float (Stat.nearest_rank a 90));
      ]
  in
  let place q =
    let kind, near = Stat.placement (fst (Util.kept ph)) q in
    json_obj [ ("kind", json_string kind); ("samples_within_1.25x_pct", json_float near) ]
  in
  "# "
  ^ json_obj
      [
        ("workload", json_string workload);
        ("seed", string_of_int seed);
        ("nproc", string_of_int (Util.nproc ()));
        ("ops", string_of_int ph.ops);
        ("failed", string_of_int ph.failed);
        ("blocks", string_of_int (List.length ph.blocks));
        ("kept_ops", string_of_int (List.length (fst (Util.kept ph))));
        ("clock_s", json_float (float_of_int ph.clock_ns /. 1e9));
        ("wall_s", json_float (float_of_int ph.wall_ns /. 1e9));
        ("mix", json_obj (List.map (fun k -> (k, kind k)) kinds));
        ("p50", place 50);
        ("p95", place 95);
      ]
