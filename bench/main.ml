(* The benchmark harness: regenerates every table and figure of the paper
   (Tables 1-3, Figures 1-2, the Firefox/Docker/BOLT experiments, and the
   Diogenes case study), then runs one bechamel micro-benchmark per
   table/figure measuring the corresponding pipeline stage.

   Usage:
     bench/main.exe                 -- everything
     bench/main.exe table3 bolt ... -- selected experiments
     bench/main.exe micro           -- only the bechamel micro-benchmarks
     bench/main.exe micro --json BENCH_micro.json
                                    -- also write machine-readable results
                                       (CI uploads this per PR, so the
                                       trajectory accumulates across the
                                       history)
     bench/main.exe micro --json BENCH_micro.json --trace BENCH_trace.json
                                    -- additionally dump the full span tree
                                       of the traced pipeline run
     bench/main.exe corpus [--seed N] [--count N] [--json FILE]
                                    -- the corpus-scale robustness matrix:
                                       every baseline and every mode swept
                                       over a seeded adversarial corpus
                                       (default 300 binaries), pass rates
                                       and refusal histograms as "corpus"
                                       rows of the JSON
     bench/main.exe diff OLD.json NEW.json [--gate pct]
                                    -- regression gate between two --json
                                       runs; non-zero exit on regression.
                                       Each row declares its own gates
                                       (bounds and pass-rate drops gate
                                       even without --gate)
     bench/main.exe serve-check [--seed N] [--count N] [--clients N]
                                    -- daemon equivalence gate: stream the
                                       corpus slice through a live icfg
                                       serve instance and compare every
                                       per-approach classification row
                                       against the in-process sweep;
                                       non-zero exit on any mismatch *)

open Icfg_isa
module Experiments = Icfg_harness.Experiments

let json_escape = Icfg_trace.Stats.json_escape

(* Monotonic nanoseconds since [t0] (a [Metrics.now_ns] reading): the wall
   clock can step under NTP and make a row negative or huge. *)
let elapsed_ns t0 = Int64.to_float (Int64.sub (Icfg_core.Metrics.now_ns ()) t0)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure                     *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let parse = Icfg_analysis.Parse.parse bin in
  let rw = Icfg_core.Rewriter.rewrite parse in
  let classify =
    Option.get (Icfg_analysis.Parse.func parse "switch0")
  in
  let fm = Icfg_analysis.Failure_model.ours in
  let known =
    Icfg_analysis.Jump_table.known_data bin []
  in
  let ra_map = rw.Icfg_core.Rewriter.rw_ra_map in
  let probe_pc =
    match Icfg_runtime.Runtime_lib.Ra_map.pairs ra_map with
    | (k, _) :: _ -> k + 3
    | [] -> 0
  in
  [
    (* Table 1 is qualitative; measure the capability-table rendering. *)
    Test.make ~name:"table1/render-capabilities"
      (Staged.stage (fun () -> Sys.opaque_identity (Experiments.table1 ())));
    (* Figure 1: whole-binary rewrite throughput. *)
    Test.make ~name:"figure1/rewrite-binary"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Icfg_core.Rewriter.rewrite parse)));
    (* Figure 2: jump-table slicing and finalization. *)
    Test.make ~name:"figure2/jump-table-analysis"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Icfg_analysis.Jump_table.analyze bin fm ~known_data:known
                classify.Icfg_analysis.Parse.fa_cfg)));
    (* Table 2: trampoline selection and emission. *)
    Test.make ~name:"table2/trampoline-emit"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Trampoline.emit arch ~at:0x400100 ~target:0x500000 ~toc:0
                (Trampoline.Long None))));
    (* Table 3: whole-binary parse (CFG + analyses). *)
    Test.make ~name:"table3/parse-binary"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Icfg_analysis.Parse.parse bin)));
    (* Firefox: RA-translation lookup (the per-unwind-step cost). *)
    Test.make ~name:"firefox/ra-translate"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Icfg_runtime.Runtime_lib.Ra_map.translate ra_map probe_pc)));
    (* Docker: compile the Go analogue. *)
    Test.make ~name:"docker/compile-go-binary"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Icfg_workloads.Apps.docker arch)));
    (* BOLT: block-reversed relocation. *)
    Test.make ~name:"bolt/reverse-blocks-rewrite"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Icfg_core.Rewriter.rewrite
                ~options:
                  {
                    Icfg_core.Rewriter.default_options with
                    Icfg_core.Rewriter.order = `Reverse_blocks;
                  }
                parse)));
    (* Diogenes: partial instrumentation of the driver analogue. *)
    Test.make ~name:"diogenes/partial-rewrite"
      (Staged.stage (fun () ->
           let bin, _ = Icfg_workloads.Apps.libcuda arch in
           let only = Icfg_workloads.Apps.libcuda_api_subset bin in
           Sys.opaque_identity
             (Icfg_baselines.Baseline.ours_partial ~mode:Icfg_core.Mode.Jt
                ~only bin)));
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_micro.json)                         *)
(* ------------------------------------------------------------------ *)

(* Every section writes one row shape (schema icfg-bench-micro/2, see
   Bench_diff): [times] follow the diff's time policy, [counters] are
   reported when they move, and [gates] declares, per field, the policy
   `bench diff` holds it to — rendered here as JSON. Written by hand — no
   JSON dependency. *)
type row = {
  section : string;
  name : string;
  times : (string * float) list;
  counters : (string * float) list;
  gates : (string * string) list;
}

let rows : row list ref = ref []

let add_row ?(times = []) ?(counters = []) ?(gates = []) section name =
  rows := { section; name; times; counters; gates } :: !rows

let ints = List.map (fun (k, v) -> (k, float_of_int v))

(* A fraction below 1 keeps three significant digits, so a per-step
   allocation of 0.004 words does not print as 0. *)
let json_num f =
  if Float.is_nan f then "null"
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else if Float.abs f < 1. then Printf.sprintf "%.3g" f
  else Printf.sprintf "%.1f" f

let worse_higher = {|"worse_higher"|}
let exact = {|"exact"|}

(* A within-run bound on NEW's value: at most (at least) [k], or [k]
   times field [f] of row [name] in [section] of the same run. *)
let bound dir ?of_ k =
  Printf.sprintf {|{"policy": "bound", "%s": %s%s}|} dir (json_num k)
    (match of_ with
    | None -> ""
    | Some (section, name, f) ->
        Printf.sprintf {|, "of": ["%s", "%s", "%s"]|} (json_escape section)
          (json_escape name) (json_escape f))

let at_most = bound "max"
let at_least = bound "min"

(* Full trace tree of the last traced rewrite, for --trace FILE. *)
let trace_json : string option ref = ref None

let write_json path =
  let bag render l =
    String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (render v))
         l)
  in
  let all = List.rev !rows in
  let last = List.length all - 1 in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"%s\",\n  \"cores\": %d,\n  \"rows\": [\n"
    Icfg_harness.Bench_diff.schema
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"section\": \"%s\", \"name\": \"%s\", \"times\": {%s}, \
         \"counters\": {%s}, \"gates\": {%s}}%s\n"
        (json_escape r.section) (json_escape r.name) (bag json_num r.times)
        (bag json_num r.counters) (bag Fun.id r.gates)
        (if i = last then "" else ","))
    all;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Per-stage pipeline trace                                            *)
(* ------------------------------------------------------------------ *)

let largest_spec_binary arch =
  List.fold_left
    (fun best bench ->
      let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
      match best with
      | Some b when Icfg_obj.Binary.loaded_size b >= Icfg_obj.Binary.loaded_size bin
        -> best
      | _ -> Some bin)
    None
    (Icfg_workloads.Spec_suite.benchmarks arch)
  |> Option.get

(* The words the running domain allocates in [f ()], counted from a full
   major collection: [minor_words], and [major_words] allocated directly
   in the major heap. The GC's major words also count the words promoted
   from the minor heap, which follow the minor collector's phase rather
   than [f]; they are subtracted. Beside them, [minor_collections]: the
   minor collections [f] ran, from an empty minor heap, so a collection
   that [f] forces (an array of more than 256 elements built from a young
   seed) shows even where [f] allocates less than the heap holds. Unlike
   a time, all three repeat exactly from process to process. *)
let words f =
  Gc.full_major ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let gcs1 = (Gc.quick_stat ()).Gc.minor_collections in
  ( r,
    [
      ("minor_words", minor1 -. minor0);
      ("major_words", major1 -. major0 -. (promoted1 -. promoted0));
      ("minor_collections", float_of_int (gcs1 - gcs0));
    ] )

(* Per-stage wall-time rows sourced from Trace: one traced parse+rewrite,
   flattened into slash-joined span paths, plus one "counters" row
   carrying the run's counter totals. An untraced rewrite and a full
   major collection come first, so the spans time a warm pipeline on a
   settled heap rather than whatever collection work the preceding rows
   left behind. The [parse] and [rewrite] rows also carry the {!words} of
   an untraced [Parse.parse] and [Rewriter.rewrite] of the same binary,
   gated [worse_higher]: work that a slower host does not move. *)
let run_trace_stages () =
  print_endline "== Per-stage pipeline trace (largest spec binary) ==";
  let bin = largest_spec_binary Arch.X86_64 in
  ignore (Sys.opaque_identity (Icfg_harness.Runner.rewrite bin));
  Gc.full_major ();
  let t = Icfg_core.Trace.create () in
  Icfg_core.Trace.with_current t (fun () ->
      ignore (Sys.opaque_identity (Icfg_harness.Runner.rewrite bin)));
  let parse, parse_words = words (fun () -> Icfg_analysis.Parse.parse bin) in
  let _, rewrite_words =
    words (fun () -> Sys.opaque_identity (Icfg_core.Rewriter.rewrite parse))
  in
  List.iter
    (fun (r : Icfg_core.Trace.row) ->
      let work =
        match r.r_path with
        | "parse" -> parse_words
        | "rewrite" -> rewrite_words
        | _ -> []
      in
      add_row "stages" r.r_path
        ~times:[ ("ns", float_of_int r.r_ns) ]
        ~counters:(("spans", float_of_int r.r_count) :: work)
        ~gates:(List.map (fun (k, _) -> (k, worse_higher)) work);
      Printf.printf "  %-28s %12d ns%s\n%!" r.r_path r.r_ns
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf "  %.0f %s" v k) work)))
    (Icfg_core.Trace.rows t);
  add_row "stages" "counters"
    ~counters:(ints (Icfg_core.Trace.counters t))
    ~gates:
      [
        ("rewrite/trampolines:trap", worse_higher);
        ("rewrite/size-growth", worse_higher);
      ];
  trace_json := Some (Icfg_core.Trace.to_json t)

(* Layout-slot rows: an uncached rewrite, a rewrite that fills a fresh
   cache, and warm rewrites through a clone of a warmed cache — of the
   identical binary, after a one-function edit and after a data edit.
   Every stage is recomputed on every row; the cache only pins the
   layout, so each warm row is bounded at 1.3x the uncached rewrite. Each
   row records one representative run's [layout.pinned]/[layout.moved]
   segment counts, and [mismatches] counts an output that is not
   byte-identical to the uncached rewrite of the same input. *)
let run_cache_micro () =
  print_endline "== Layout slots: uncached vs warm rewrites (largest spec binary) ==";
  let module Cache = Icfg_core.Cache in
  let module Runner = Icfg_harness.Runner in
  let arch = Arch.X86_64 in
  let bin = largest_spec_binary arch in
  let rewrite ?cache b = Runner.rewrite ?cache b in
  let fingerprint (rw : Icfg_core.Rewriter.t) =
    Digest.to_hex (Digest.string (Marshal.to_string rw.Icfg_core.Rewriter.rw_binary []))
  in
  (* One representative run under a private trace, for the row's
     counters. The layout counters are written even when zero (the tracer
     records only nonzero counters), so a row that stops reporting one
     fails its exact gate. *)
  let representative ~expect c b =
    let t = Icfg_core.Trace.create () in
    let rw = Icfg_core.Trace.with_current t (fun () -> rewrite ~cache:c b) in
    let layout k =
      (k, Option.value ~default:0 (Icfg_core.Trace.find_counter t k))
    in
    [
      layout "layout.pinned";
      layout "layout.moved";
      ("mismatches", if fingerprint rw = expect then 0 else 1);
    ]
  in
  let base_fp = fingerprint (rewrite bin) in
  (* Warm store shared by the warm rows; each representative/timed run
     replays it through a clone so per-run counters start from zero. *)
  let warm = Cache.create () in
  ignore (Sys.opaque_identity (rewrite ~cache:warm bin));
  let p = Icfg_analysis.Parse.parse bin in
  let slot_gates =
    [
      ("layout.pinned", exact);
      ("layout.moved", exact);
      ("mismatches", at_most 0.);
    ]
  in
  let warm_gates =
    ( "ns_per_run",
      at_most 1.3 ~of_:("cache", "cache-uncached-rewrite", "ns_per_run") )
    :: slot_gates
  in
  (* A warm rewrite of [b], checked byte-identical to its uncached
     rewrite. *)
  let warm_row name b =
    ( name,
      representative ~expect:(fingerprint (rewrite b)) (Cache.clone warm) b,
      warm_gates,
      fun () -> rewrite ~cache:(Cache.clone warm) b )
  in
  let uncached =
    ("cache-uncached-rewrite", [], [], fun () -> rewrite bin)
  in
  let cold =
    ( "cache-cold-rewrite",
      representative ~expect:base_fp (Cache.create ()) bin,
      slot_gates,
      fun () -> rewrite ~cache:(Cache.create ()) bin )
  in
  let edited what probe name =
    match probe p with
    | None ->
        Printf.printf "  (no safely perturbable %s; skipping %s)\n%!" what name;
        []
    | Some (pbin, site) ->
        Printf.printf "  (perturbed %s: %s)\n%!" what site;
        [ warm_row name pbin ]
  in
  let perturbed =
    edited "function" Runner.perturb_function "cache-warm-perturbed"
  in
  let data_edit =
    edited "data section" Runner.perturb_data "cache-warm-data-edit"
  in
  let cases =
    [ uncached; cold; warm_row "cache-warm-identical" bin ]
    @ perturbed @ data_edit
  in
  (* The rows are bounded against each other, so they are timed together:
     each of [reps] rounds runs every row once, in turn, and a row's time
     is its median round. Drift in the host's speed then lands on all rows
     alike instead of on whichever row ran through it. *)
  let reps = 20 in
  let samples = List.map (fun _ -> Array.make reps 0.) cases in
  List.iter (fun (_, _, _, run) -> ignore (Sys.opaque_identity (run ()))) cases;
  for i = 0 to reps - 1 do
    List.iter2
      (fun (_, _, _, run) a ->
        let t0 = Icfg_core.Metrics.now_ns () in
        ignore (Sys.opaque_identity (run ()));
        a.(i) <- elapsed_ns t0)
      cases samples
  done;
  let times =
    List.map2
      (fun (name, counters, gates, _) a ->
        Array.sort compare a;
        let ns = a.(reps / 2) in
        add_row "cache" name ~times:[ ("ns_per_run", ns) ]
          ~counters:(ints counters) ~gates;
        Printf.printf "  %-24s %12.0f ns/run  (%s)\n%!" name ns
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters));
        (name, ns))
      cases samples
  in
  List.iter
    (fun (name, ns) ->
      if name <> "cache-uncached-rewrite" then
        Printf.printf "  %-24s /uncached: %.2fx\n%!" name
          (ns /. List.assoc "cache-uncached-rewrite" times))
    times

(* Image rows: the first starved binary of the seed-7 corpus in two
   forms, [starved-sparse] (its 34 MiB .bigdata a zero tail, as built) and
   [starved-dense] (the same section patched to non-zero bytes
   throughout), through the paths that are O(stored bytes): Binfile
   encode and decode, the store digest of the container, and one Vm run.
   The dense row keeps the cost of real bytes measured. Each time is the
   median of interleaved rounds; each container's size is held exactly. *)
let run_image_micro () =
  print_endline "== Images: a starved binary, sparse and dense ==";
  let module Binfile = Icfg_obj.Binfile in
  let module Binary = Icfg_obj.Binary in
  let module Section = Icfg_obj.Section in
  let module Corpus = Icfg_workloads.Corpus in
  let entry =
    List.find
      (fun (e : Corpus.entry) -> e.Corpus.e_shape = Corpus.Starved)
      (Corpus.generate ~seed:7 ~count:7)
  in
  let sparse = Corpus.build entry in
  let big = Binary.section_exn sparse ".bigdata" in
  let dense =
    Binary.patch sparse
      [
        ( big.Section.vaddr,
          String.init (Section.size big) (fun i -> Char.chr (1 + (i mod 255))) );
      ]
  in
  let forms =
    List.map
      (fun (name, bin) -> (name, bin, Binfile.to_string bin))
      [ ("starved-sparse", sparse); ("starved-dense", dense) ]
  in
  let ops bin s =
    [
      ("encode_ns", fun () -> ignore (Sys.opaque_identity (Binfile.to_string bin)));
      ("decode_ns", fun () -> ignore (Sys.opaque_identity (Binfile.of_string s)));
      ("digest_ns", fun () -> ignore (Sys.opaque_identity (Icfg_service.Store.digest s)));
      ( "vm_run_ns",
        fun () -> ignore (Sys.opaque_identity (Icfg_harness.Runner.run_original bin)) );
    ]
  in
  let reps = 9 in
  let cases =
    List.map
      (fun (name, bin, s) ->
        (name, s, List.map (fun (k, run) -> (k, run, Array.make reps 0.)) (ops bin s)))
      forms
  in
  let all = List.concat_map (fun (_, _, l) -> l) cases in
  List.iter (fun (_, run, _) -> run ()) all;
  Gc.full_major ();
  for i = 0 to reps - 1 do
    List.iter
      (fun (_, run, a) ->
        let t0 = Icfg_core.Metrics.now_ns () in
        run ();
        a.(i) <- elapsed_ns t0)
      all
  done;
  List.iter
    (fun (name, s, l) ->
      let times =
        List.map
          (fun (k, _, a) ->
            Array.sort compare a;
            (k, a.(reps / 2)))
          l
      in
      add_row "image" name ~times
        ~counters:[ ("container_bytes", float_of_int (String.length s)) ]
        ~gates:[ ("container_bytes", exact) ];
      Printf.printf "  %-16s %10d container bytes  %s\n%!" name (String.length s)
        (String.concat "  "
           (List.map (fun (k, ns) -> Printf.sprintf "%s=%.0f" k ns) times)))
    cases

(* Vm rows: every x86-64 spec binary run as compiled and as rewritten in
   ours/jt mode, through the harness's measured runs (icache on). The
   Vm's counts over each set repeat exactly, and so do the {!words} the
   runs allocate: a step allocates nothing (bounded per step), and a run
   little beyond a copy of its code and the blocks it decodes (gated
   [worse_higher] per run).
   [ns_per_run], the median of five interleaved rounds over the set's
   runs, is tens of milliseconds, so [bench diff]'s absolute noise floor
   does not hide a slower [Vm]. *)
let run_vm_micro () =
  print_endline "== Vm: x86-64 spec suite, original and ours/jt ==";
  let module Runner = Icfg_harness.Runner in
  let arch = Arch.X86_64 in
  let bins =
    List.map
      (fun b -> fst (Icfg_workloads.Spec_suite.compile arch b))
      (Icfg_workloads.Spec_suite.benchmarks arch)
  in
  let jt b =
    match Runner.drive ~approach:"ours/jt" b with
    | Some (Icfg_baselines.Baseline.Rewritten rw) -> rw
    | _ -> failwith "vm rows: ours/jt did not rewrite a spec binary"
  in
  let cases =
    [
      ("spec-x86-64-original", List.map (fun b () -> Runner.run_original b) bins);
      ( "spec-x86-64-ours-jt",
        List.map (fun rw () -> Runner.run_rewritten rw) (List.map jt bins) );
    ]
  in
  let reps = 5 in
  let samples = List.map (fun _ -> Array.make reps 0.) cases in
  let minor = Array.make (List.length cases) 0.
  and major = Array.make (List.length cases) 0. in
  let totals = Array.make (List.length cases) [] in
  for i = 0 to reps - 1 do
    List.iteri
      (fun c ((_, runs), a) ->
        let rs, w =
          words (fun () ->
              let t0 = Icfg_core.Metrics.now_ns () in
              let rs = List.map (fun run -> run ()) runs in
              a.(i) <- elapsed_ns t0;
              rs)
        in
        minor.(c) <- minor.(c) +. List.assoc "minor_words" w;
        major.(c) <- major.(c) +. List.assoc "major_words" w;
        let sum f = List.fold_left (fun n r -> n + f r) 0 rs in
        totals.(c) <-
          [
            ("runs", List.length rs);
            ("steps", sum (fun r -> r.Runner.r_steps));
            ("cycles", sum (fun r -> r.Runner.r_cycles));
            ("trap_hits", sum (fun r -> r.Runner.r_traps));
            ("icache_misses", sum (fun r -> r.Runner.r_icache_misses));
          ])
      (List.combine cases samples)
  done;
  List.iteri
    (fun c ((name, _), a) ->
      Array.sort compare a;
      let counts = totals.(c) in
      let steps = float_of_int (List.assoc "steps" counts)
      and runs = float_of_int (List.assoc "runs" counts) in
      let reps = float_of_int reps in
      let ns_per_run = a.(Array.length a / 2) /. runs in
      let minor_per_step = minor.(c) /. (reps *. steps)
      and major_per_run = Float.round (major.(c) /. (reps *. runs)) in
      add_row "vm" name
        ~times:[ ("ns_per_run", ns_per_run) ]
        ~counters:
          (ints counts
          @ [
              ("minor_words_per_step", minor_per_step);
              ("major_words_per_run", major_per_run);
            ])
        ~gates:
          [
            ("steps", exact);
            ("cycles", exact);
            ("trap_hits", exact);
            ("icache_misses", exact);
            ("minor_words_per_step", at_most 0.05);
            ("major_words_per_run", worse_higher);
          ];
      Printf.printf
        "  %-22s %10.0f steps  %6.2f ms/run  %8.4f minor words/step  %8.0f \
         major words/run\n%!"
        name steps (ns_per_run /. 1e6) minor_per_step major_per_run)
    (List.combine cases samples)

(* Daemon throughput: a twin-bearing corpus slice streamed through a live
   [icfg serve] instance as classify requests, at 1 and 4 concurrent
   clients. The twins answer from the response memo without re-entering
   the pipeline; overloaded and errors are deterministically zero
   (in-flight is bounded by the client count, classification never
   answers Error). *)
let run_serve_micro () =
  print_endline "== Rewrite-as-a-service: daemon request streams ==";
  let module Sweep = Icfg_service.Sweep in
  List.iter
    (fun clients ->
      let r = Sweep.run ~seed:7 ~count:12 ~clients () in
      let name = Printf.sprintf "serve-stream-c%d" clients in
      let ns_per_request =
        r.Sweep.sw_wall_ns /. float_of_int (max 1 r.Sweep.sw_requests)
      in
      add_row "serve" name
        ~times:[ ("ns_per_request", ns_per_request) ]
        ~counters:
          (ints
             [
               ("requests", r.Sweep.sw_requests);
               ("overloaded", r.Sweep.sw_overloaded);
               ("errors", r.Sweep.sw_errors);
             ])
        ~gates:[ ("overloaded", worse_higher); ("errors", worse_higher) ];
      (* Distill the daemon's telemetry snapshot into the gateable
         metrics row for this stream. *)
      let module M = Icfg_core.Metrics in
      let has_prefix p s =
        String.length s >= String.length p
        && String.sub s 0 (String.length p) = p
      in
      let snap = r.Sweep.sw_metrics in
      (* Scalar allowlist counters are emitted even when the daemon never
         touched them (absence == 0), so every gated counter is present.
         [sched.jobs] and the memo counters are only emitted at c1: under
         concurrent clients two identical requests can race past a memo
         and both run, so those counts are schedule-dependent there
         (benign — both runs produce identical bytes). At c1 the run-memo
         counts pin that each input's original runs once. *)
      let scalar_allowlist =
        [
          "serve.requests"; "serve.overloaded"; "serve.errors";
          "serve.needfull"; "serve.rejected";
        ]
        @ (if clients = 1 then
             [
               "sched.jobs"; "response_cache.hit"; "response_cache.miss";
               "run_memo.hit"; "run_memo.miss";
             ]
           else [])
      in
      let det_counters =
        List.sort compare
          (List.map
             (fun k ->
               ( k,
                 match List.assoc_opt k snap.M.s_counters with
                 | Some v -> v
                 | None -> 0 ))
             scalar_allowlist
          @ List.filter
              (fun (k, _) -> has_prefix "serve.responses:" k)
              snap.M.s_counters)
      in
      let gateable k =
        has_prefix "request.latency:" k || k = "sched.queue_wait"
      in
      let hist_counts =
        List.filter_map
          (fun (k, h) ->
            if gateable k then Some (k ^ ":count", h.M.h_count) else None)
          snap.M.s_histos
      in
      let times =
        List.filter_map
          (fun (k, h) ->
            if gateable k then Some (k ^ ":sum_ns", h.M.h_sum) else None)
          snap.M.s_histos
      in
      (* Every counter here is a deterministic function of the served
         stream, so any drift in either direction gates: a dropped count is
         a lost request as surely as a risen error count is a new fault. *)
      let counters = det_counters @ hist_counts in
      add_row "metrics"
        (Printf.sprintf "serve-metrics-c%d" clients)
        ~times:(ints times) ~counters:(ints counters)
        ~gates:(List.map (fun (k, _) -> (k, exact)) counters);
      Printf.printf
        "  %-18s %12.0f ns/request  %7.1f req/s  (%d requests, %d \
         overloaded, %d errors)\n%!"
        name ns_per_request r.Sweep.sw_rps r.Sweep.sw_requests
        r.Sweep.sw_overloaded r.Sweep.sw_errors;
      List.iter
        (fun (k, h) ->
          if has_prefix "request.latency:" k then
            Printf.printf "    %-44s %5d obs  mean %.2f ms\n%!"
              (String.sub k 16 (String.length k - 16))
              h.M.h_count
              (M.histo_mean h /. 1e6))
        snap.M.s_histos)
    [ 1; 4 ]

(* Incremental service protocol streams (DESIGN §15). Three rows:

   serve-ref-stream     the serve-stream-c1 slice shipped as 32-byte
                        [Ref] digests after a one-time registration
                        pass — the wire-cost twin of serve-stream-c1.
   serve-patch-stream   one-function edits of spec binaries shipped as
                        sparse [Patch] deltas against registered bases;
                        responses checked byte-identical against
                        in-process rewrites of the same edits. Bounded:
                        wire bytes/request <= 10% of a full upload.
   serve-replay-stream  a warmed stream replayed; the replays arrive as
                        [Ref] digests (the incremental client's steady
                        state: pass 1's full uploads registered every
                        binary) and every one must answer from the
                        response memo with zero scheduled pipeline jobs
                        and byte-identical payloads, >= 10x faster per
                        request than serve-stream-c1. Both are declared
                        as within-run bounds on the rows. *)
let run_serve_incremental_micro () =
  print_endline
    "== Incremental service protocol: ref / patch / replay streams ==";
  let module Sweep = Icfg_service.Sweep in
  let module Server = Icfg_service.Server in
  let module Client = Icfg_service.Client in
  let module Protocol = Icfg_service.Protocol in
  let module Store = Icfg_service.Store in
  let module Binfile = Icfg_obj.Binfile in
  let module M = Icfg_core.Metrics in
  let sock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "icfg-bench-%s-%d.sock" tag (Unix.getpid ()))
  in
  let row name ns ~gates counters =
    add_row "serve" name ~times:[ ("ns_per_request", ns) ]
      ~counters:(ints counters) ~gates;
    Printf.printf "  %-20s %12.0f ns/request  (%s)\n%!" name ns
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))
  in
  (* --- serve-ref-stream ------------------------------------------- *)
  let r = Sweep.run ~seed:7 ~count:12 ~clients:1 ~payload_mode:Sweep.By_ref () in
  let nreq = max 1 r.Sweep.sw_requests in
  row "serve-ref-stream"
    (r.Sweep.sw_wall_ns /. float_of_int nreq)
    ~gates:
      [
        ("overloaded", worse_higher);
        ("errors", worse_higher);
        ("needfull", worse_higher);
      ]
    [
      ("requests", r.Sweep.sw_requests);
      ("overloaded", r.Sweep.sw_overloaded);
      ("errors", r.Sweep.sw_errors);
      ("needfull", r.Sweep.sw_needfull);
      ("wire_bytes_per_request", r.Sweep.sw_wire_req_bytes / nreq);
      ("full_upload_bytes_per_request", r.Sweep.sw_full_req_bytes / nreq);
      ("register_bytes", r.Sweep.sw_register_bytes);
    ];
  (* --- serve-patch-stream ----------------------------------------- *)
  let approach = "ours/dir" in
  (* One deterministic single-function edit per distinct spec binary
     (the [perturb_function] contract), pre-checked in-process: the
     daemon must reproduce these exact bytes from a sparse delta. *)
  let edits =
    List.filter_map
      (fun bench ->
        let bin, _ = Icfg_workloads.Spec_suite.compile Arch.X86_64 bench in
        let p = Icfg_analysis.Parse.parse bin in
        match Icfg_harness.Runner.perturb_function p with
        | None -> None
        | Some (edited, _fname) -> (
            match Icfg_harness.Runner.drive ~approach edited with
            | Some (Icfg_baselines.Baseline.Rewritten rw) ->
                Some
                  ( Binfile.to_string bin,
                    Binfile.to_string edited,
                    Binfile.to_string rw.Icfg_core.Rewriter.rw_binary )
            | _ -> None))
      (Icfg_workloads.Spec_suite.benchmarks Arch.X86_64)
  in
  let edits = List.filteri (fun i _ -> i < 6) edits in
  (if edits = [] then
     print_endline "  (no perturbable spec binaries; skipping patch stream)"
   else begin
     let path = sock "patch" in
     let srv = Server.start ~path () in
     Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
     Client.with_connection path @@ fun c ->
     List.iter
       (fun (base, _, _) ->
         match Client.register_bytes c base with
         | Ok (Protocol.Registered _) -> ()
         | _ -> failwith "register failed")
       edits;
     let register_bytes = Client.bytes_sent c in
     let mismatches = ref 0 and full_bytes = ref 0 in
     let t0 = Icfg_core.Metrics.now_ns () in
     List.iter
       (fun (base, edited, expected) ->
         let ranges = Protocol.diff_ranges ~base edited in
         (* What shipping [edited] whole would have cost on the wire. *)
         full_bytes :=
           !full_bytes
           + Protocol.frame_bytes
               (Protocol.request_to_payload
                  (Protocol.Rewrite
                     { approach; jobs = 0; payload = Protocol.Full edited }));
         let payload =
           Protocol.Patch
             {
               base = Store.digest base;
               total_len = String.length edited;
               ranges;
             }
         in
         match Client.rewrite_payload c ~approach ~fallback:edited payload with
         | Ok (Protocol.Rewritten { bin; _ }) ->
             if bin <> expected then incr mismatches
         | _ -> incr mismatches)
       edits;
     let wall_ns = elapsed_ns t0 in
     let wire = Client.bytes_sent c - register_bytes in
     (* [~fallback] answers a NeedFull with a full re-send, so only the
        daemon sees how many there were. *)
     let needfull =
       Option.value ~default:0
         (M.find_counter (Server.snapshot srv) "serve.needfull")
     in
     let n = List.length edits in
     row "serve-patch-stream"
       (wall_ns /. float_of_int (max 1 n))
       ~gates:
         [
           ("needfull", at_most 0.);
           ("mismatches", at_most 0.);
           ( "wire_bytes_per_request",
             at_most 0.1
               ~of_:
                 ( "serve",
                   "serve-patch-stream",
                   "full_upload_bytes_per_request" ) );
         ]
       [
         ("requests", n);
         ("needfull", needfull);
         ("mismatches", !mismatches);
         ("wire_bytes_per_request", wire / max 1 n);
         ("full_upload_bytes_per_request", !full_bytes / max 1 n);
         ("register_bytes", register_bytes);
       ]
   end);
  (* --- serve-replay-stream ---------------------------------------- *)
  let entries = Icfg_workloads.Corpus.generate ~seed:7 ~count:12 in
  let bin_strs =
    List.map
      (fun e -> Binfile.to_string (Icfg_workloads.Corpus.build e))
      entries
  in
  let approaches = List.map fst Icfg_baselines.Baseline.approaches in
  (* Digests precomputed off the clock: pass 2 measures the daemon's
     replay path, not client-side hashing. *)
  let items =
    List.concat_map
      (fun s ->
        let d = Store.digest s in
        List.map (fun a -> (a, s, d)) approaches)
      bin_strs
  in
  let path = sock "replay" in
  let srv = Server.start ~path () in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  Client.with_connection path @@ fun c ->
  let raw_call payload_of (a, s, d) =
    Protocol.write_frame (Client.fd c)
      (Protocol.request_to_payload
         (Protocol.Classify
            { approach = a; jobs = 0; payload = payload_of s d }));
    match Protocol.read_frame (Client.fd c) with
    | Some p -> p
    | None -> failwith "daemon hung up"
  in
  (* Pass 1 (untimed): compute every response once through the pipeline;
     the full uploads register every binary as a side effect. *)
  let pass1 = List.map (raw_call (fun s _ -> Protocol.Full s)) items in
  let counter k =
    Option.value ~default:0 (M.find_counter (Server.snapshot srv) k)
  in
  let hits0 = counter "response_cache.hit" in
  let jobs0 = counter "sched.jobs" in
  (* Pass 2 (timed): the same requests re-sent as [Ref] digests — the
     resolved binary, and therefore the memo key, is identical, so every
     replay answers from the memo: no pipeline, no re-upload. *)
  let t0 = Icfg_core.Metrics.now_ns () in
  let pass2 = List.map (raw_call (fun _ d -> Protocol.Ref d)) items in
  let wall_ns = elapsed_ns t0 in
  let hits = counter "response_cache.hit" - hits0 in
  (* A replay that entered the pipeline was scheduled as a job. *)
  let scheduled_jobs = counter "sched.jobs" - jobs0 in
  let mismatches =
    List.fold_left2
      (fun acc a b -> if String.equal a b then acc else acc + 1)
      0 pass1 pass2
  in
  let n = List.length items in
  row "serve-replay-stream"
    (wall_ns /. float_of_int (max 1 n))
    ~gates:
      [
        ( "ns_per_request",
          at_most 0.1 ~of_:("serve", "serve-stream-c1", "ns_per_request") );
        ("response_hit_rate_pct", at_least 100.);
        ("scheduled_jobs", at_most 0.);
        ("mismatches", at_most 0.);
      ]
    [
      ("requests", n);
      ("response_hits", hits);
      ("response_hit_rate_pct", 100 * hits / max 1 n);
      ("scheduled_jobs", scheduled_jobs);
      ("mismatches", mismatches);
    ]

let run_micro () =
  let open Bechamel in
  print_endline "== Micro-benchmarks (bechamel; one per table/figure) ==";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      List.iter
        (fun t ->
          let raw = Benchmark.run cfg [ instance ] t in
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols instance raw in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some [ n ] -> n
            | _ -> nan
          in
          add_row "micro" (Test.Elt.name t) ~times:[ ("ns_per_run", nanos) ];
          Printf.printf "  %-32s %12.0f ns/run\n%!" (Test.Elt.name t) nanos)
        (Test.elements test))
    tests;
  run_trace_stages ();
  run_cache_micro ();
  run_image_micro ();
  run_vm_micro ();
  run_serve_micro ();
  run_serve_incremental_micro ()

(* The corpus-scale robustness matrix: every roster baseline and every
   mode of ours swept over a seeded adversarial corpus. Classification is
   deterministic (seeded corpus, serial cells), so each approach's pass
   rate gates on any drop against a sweep of the same size, with no
   --gate and no noise floor. *)
let run_corpus ~seed ~count =
  let module Matrix = Icfg_harness.Matrix in
  let m =
    Matrix.run ~seed ~count
      ~progress:(fun i ->
        if i mod 50 = 0 && i < count then
          Printf.printf "  ...%d/%d binaries\n%!" i count)
      ()
  in
  print_string (Matrix.render m);
  add_row "corpus" "sweep"
    ~counters:(ints [ ("seed", m.Matrix.m_seed); ("count", m.Matrix.m_count) ]);
  List.iter
    (fun (r : Matrix.row) ->
      add_row "corpus" r.Matrix.row_approach
        ~times:[ ("p50_ns", r.Matrix.row_p50_ns); ("p95_ns", r.Matrix.row_p95_ns) ]
        ~counters:
          (ints
             [
               ("cells", r.Matrix.row_cells);
               ("verified", r.Matrix.row_verified);
               ("diverged", r.Matrix.row_diverged);
               ("refused", r.Matrix.row_refused);
               ("crashed", r.Matrix.row_crashed);
             ]
          @ [ ("pass_rate_pct", Matrix.pass_rate_pct r) ]
          @ ints
              (List.map (fun (k, n) -> ("refusal:" ^ k, n)) r.Matrix.row_refusals))
        ~gates:
          [
            ( "pass_rate_pct",
              {|{"policy": "worse_lower", "if_same": "cells"}|} );
          ])
    m.Matrix.m_rows

(* "--flag VALUE" anywhere in the argument list: the value, and the
   arguments without the pair. *)
let split_flag flag args =
  let rec go acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let int_flag flag default args =
  let s, args = split_flag flag args in
  (Option.fold ~none:default ~some:int_of_string s, args)

(* The regression gate: `bench/main.exe diff OLD.json NEW.json [--gate pct]`
   compares two --json runs under the gates OLD's rows declare and exits
   non-zero on regression (CI runs this against the committed
   baselines). *)
let run_diff args =
  let gate_s, args = split_flag "--gate" args in
  let gate = Option.map float_of_string gate_s in
  match args with
  | [ old_path; new_path ] -> (
      match Icfg_harness.Bench_diff.diff_files ?gate old_path new_path with
      | Error e ->
          Printf.eprintf "diff: %s\n" e;
          exit 2
      | Ok findings ->
          print_string (Icfg_harness.Bench_diff.render findings);
          if Icfg_harness.Bench_diff.has_regression findings then (
            Printf.eprintf "diff: regressions found\n";
            exit 1))
  | _ ->
      Printf.eprintf "usage: bench/main.exe diff OLD.json NEW.json [--gate pct]\n";
      exit 2

(* The serve equivalence gate: `bench/main.exe serve-check [--seed N]
   [--count N] [--clients N]` sweeps a corpus slice through a
   live daemon AND in-process, and exits non-zero unless every
   per-approach classification row matches exactly (CI runs this as the
   serve smoke step). *)
let run_serve_check args =
  let seed, args = int_flag "--seed" 7 args in
  let count, args = int_flag "--count" 60 args in
  let clients, args = int_flag "--clients" 4 args in
  if args <> [] then (
    Printf.eprintf
      "usage: bench/main.exe serve-check [--seed N] [--count N] [--clients \
       N]\n";
    exit 2);
  let module Sweep = Icfg_service.Sweep in
  Printf.printf
    "serve-check: daemon vs in-process sweep (seed %d, %d binaries, %d \
     clients)\n%!"
    seed count clients;
  let ok, report, r = Sweep.check ~seed ~count ~clients () in
  print_string report;
  Printf.printf "daemon: %d requests, %d overloaded, %d errors, %.1f req/s\n%!"
    r.Sweep.sw_requests r.Sweep.sw_overloaded r.Sweep.sw_errors r.Sweep.sw_rps;
  if not ok then (
    Printf.eprintf "serve-check: daemon and in-process sweeps disagree\n";
    exit 1);
  print_endline "serve-check: classifications match exactly"

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  (match args with
  | "diff" :: rest ->
      run_diff rest;
      exit 0
  | "serve-check" :: rest ->
      run_serve_check rest;
      exit 0
  | _ -> ());
  (* The flags may appear anywhere in the argument list; the rest select
     experiments. *)
  let json_path, args = split_flag "--json" args in
  let trace_path, args = split_flag "--trace" args in
  let corpus_seed, args = int_flag "--seed" 7 args in
  let corpus_count, args = int_flag "--count" 300 args in
  let selected =
    match args with
    | [] -> List.map fst Experiments.registry @ [ "micro"; "corpus" ]
    | l -> l
  in
  List.iter
    (fun name ->
      if name = "micro" then run_micro ()
      else if name = "corpus" then
        run_corpus ~seed:corpus_seed ~count:corpus_count
      else
        match List.assoc_opt name Experiments.registry with
        | Some f ->
            print_string (f ());
            print_newline ()
        | None ->
            Printf.eprintf "unknown experiment %s (have: %s, micro, corpus)\n"
              name
              (String.concat ", " (List.map fst Experiments.registry));
            exit 1)
    selected;
  Option.iter write_json json_path;
  Option.iter
    (fun path ->
      match !trace_json with
      | Some json ->
          let oc = open_out path in
          output_string oc json;
          close_out oc;
          Printf.printf "wrote %s\n%!" path
      | None ->
          Printf.eprintf "--trace: no trace recorded (run the micro suite)\n")
    trace_path
