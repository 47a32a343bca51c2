(* The icfg command-line tool: inspect, analyze, rewrite and run the
   workspace's synthetic binaries, and regenerate the paper's experiments.

     icfg inspect  --workload docker --arch x86-64
     icfg analyze  --workload spec:602.gcc_s --arch ppc64le
     icfg rewrite  --workload libxul --mode jt
     icfg run      --workload quickstart --mode func-ptr
     icfg bench table3 diogenes *)

open Cmdliner
open Icfg_isa
module Binary = Icfg_obj.Binary
module Parse = Icfg_analysis.Parse
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode
module Vm = Icfg_runtime.Vm

(* ------------------------------------------------------------------ *)
(* Workload selection                                                  *)
(* ------------------------------------------------------------------ *)

let quickstart arch pie =
  let spec =
    { Icfg_workloads.Gen.default_spec with Icfg_workloads.Gen.name = "quickstart"; iters = 50 }
  in
  Icfg_codegen.Compile.compile ~pie arch (Icfg_workloads.Gen.build spec)

let load_workload name arch pie =
  match name with
  | _ when String.length name > 5 && String.sub name 0 5 = "file:" ->
      let path = String.sub name 5 (String.length name - 5) in
      (Icfg_obj.Binfile.load path, Icfg_codegen.Debug.empty)
  | "quickstart" -> quickstart arch pie
  | "libxul" -> Icfg_workloads.Apps.libxul arch
  | "docker" -> Icfg_workloads.Apps.docker arch
  | "libcuda" -> Icfg_workloads.Apps.libcuda arch
  | _ when String.length name > 5 && String.sub name 0 5 = "spec:" ->
      let bname = String.sub name 5 (String.length name - 5) in
      let bench =
        List.find_opt
          (fun b -> b.Icfg_workloads.Spec_suite.bench_name = bname)
          (Icfg_workloads.Spec_suite.benchmarks arch)
      in
      (match bench with
      | Some b -> Icfg_workloads.Spec_suite.compile ~pie arch b
      | None ->
          Printf.eprintf "unknown SPEC-like benchmark %s; names:\n%s\n" bname
            (String.concat "\n"
               (List.map
                  (fun b -> "  " ^ b.Icfg_workloads.Spec_suite.bench_name)
                  (Icfg_workloads.Spec_suite.benchmarks arch)));
          exit 1)
  | _ ->
      Printf.eprintf
        "unknown workload %s (quickstart | libxul | docker | libcuda | \
         spec:<name> | file:<path>)\n"
        name;
      exit 1

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let arch_conv =
  let parse s =
    match Arch.of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown architecture %s" s))
  in
  Arg.conv (parse, Arch.pp)

let mode_conv =
  let parse s =
    match Mode.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown mode %s" s))
  in
  Arg.conv (parse, Mode.pp)

let workload_t =
  Arg.(value & opt string "quickstart" & info [ "w"; "workload" ] ~doc:"Workload name.")

let arch_t =
  Arg.(value & opt arch_conv Arch.X86_64 & info [ "a"; "arch" ] ~doc:"Architecture.")

let pie_t = Arg.(value & flag & info [ "pie" ] ~doc:"Compile as PIE.")

let mode_t =
  Arg.(value & opt mode_conv Mode.Jt & info [ "m"; "mode" ] ~doc:"Rewriting mode.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Record a pipeline trace (timed span tree per stage + named \
           counters, including VM runtime counters where a VM runs) and \
           write it to $(docv) as JSON (schema icfg-trace/1)."
        ~docv:"FILE")

(* Run [f] under an ambient trace when [--trace FILE] was given, then write
   the JSON report — also when [f] raises or exits, so a failed pipeline
   still leaves its trace behind for diagnosis. Tracing is
   observation-only: [f]'s outputs are byte-identical either way. *)
let with_trace path f =
  match path with
  | None -> f ()
  | Some file ->
      let r = Icfg_core.Trace.with_file file f in
      Format.printf "wrote trace %s@." file;
      r

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let inspect workload arch pie =
  let bin, dbg = load_workload workload arch pie in
  Format.printf "%a" Binary.pp bin;
  Format.printf "%a" Icfg_codegen.Debug.pp dbg

let analyze workload arch pie =
  let bin, _ = load_workload workload arch pie in
  let p = Icfg_harness.Runner.parse bin in
  Format.printf "%a" Parse.pp_summary p;
  List.iter
    (fun fa ->
      Format.printf "  %-24s blocks %3d, tables %d, tail jumps %d%s@."
        fa.Parse.fa_sym.Icfg_obj.Symbol.name
        (List.length fa.Parse.fa_cfg.Icfg_analysis.Cfg.blocks)
        (List.length fa.Parse.fa_tables)
        (List.length fa.Parse.fa_tail_jumps)
        (if fa.Parse.fa_instrumentable then "" else "  [UNINSTRUMENTABLE]"))
    p.Parse.funcs

let rewrite_cmd workload arch pie mode output trace =
  let bin, _ = load_workload workload arch pie in
  let rw =
    with_trace trace @@ fun () ->
    Icfg_harness.Runner.rewrite
      ~options:{ Rewriter.default_options with Rewriter.mode } bin
  in
  Format.printf "%a@." Rewriter.pp_stats rw.Rewriter.rw_stats;
  Format.printf "%a" Binary.pp rw.Rewriter.rw_binary;
  match output with
  | Some path ->
      Icfg_obj.Binfile.save path rw.Rewriter.rw_binary;
      Format.printf "wrote %s@." path
  | None -> ()

let verify_cmd workload arch pie mode trace =
  let module R = Icfg_harness.Runner in
  let bin, _ = load_workload workload arch pie in
  let problems =
    with_trace trace @@ fun () ->
    let options = { Rewriter.default_options with Rewriter.mode } in
    let t = R.strong_test ~options bin in
    (match t.R.st_problems with
    | [] ->
        Format.printf
          "OK: %d blocks verified (%d executed), cycles %d -> %d (traps %d)@."
          t.R.st_blocks_checked t.R.st_blocks_executed t.R.st_orig.R.r_cycles
          t.R.st_rewritten.R.r_cycles t.R.st_rewritten.R.r_traps
    | ps ->
        Format.printf "FAILED (%d problems):@." (List.length ps);
        List.iter (Format.printf "  - %a@." R.pp_problem) ps);
    t.R.st_problems
  in
  if problems <> [] then exit 1

let run_cmd workload arch pie mode trace =
  let module R = Icfg_harness.Runner in
  let bin, _ = load_workload workload arch pie in
  let show label (r : R.run) =
    Format.printf "%-10s %-8s cycles %10d, steps %9d, traps %5d, output [%s]@."
      label
      (match r.R.r_outcome with Vm.Halted -> "ok" | Vm.Crashed m -> "CRASH: " ^ m)
      r.R.r_cycles r.R.r_steps r.R.r_traps
      (String.concat "; " (List.map string_of_int r.R.r_output))
  in
  let orig, r =
    with_trace trace @@ fun () ->
    let orig = R.run_original bin in
    let options = { Rewriter.default_options with Rewriter.mode } in
    (orig, R.run_rewritten (R.rewrite ~options bin))
  in
  show "original" orig;
  show (Mode.name mode) r;
  match R.judge ~orig r with
  | R.Verified pct -> Format.printf "outputs match; overhead %+.2f%%@." pct
  | R.Diverged | R.Crashed _ -> ()

let report_cmd workload arch pie mode json trace =
  let module A = Icfg_core.Attribution in
  let bin, _ = load_workload workload arch pie in
  with_trace trace @@ fun () ->
  let rewrite mode =
    Icfg_harness.Runner.rewrite
      ~options:{ Rewriter.default_options with Rewriter.mode } bin
  in
  let rw = rewrite mode in
  let attr = rw.Rewriter.rw_attribution in
  (* The Dir baseline gives the mode's incremental delta. *)
  let dir =
    if mode = Mode.Dir then None
    else Some (rewrite Mode.Dir).Rewriter.rw_attribution
  in
  Format.printf "%a@." Rewriter.pp_stats rw.Rewriter.rw_stats;
  Format.printf "%a" A.pp attr;
  (match dir with
  | Some d ->
      let dl = A.delta ~dir:d attr in
      Format.printf
        "delta vs dir: cfl blocks %+d, trampolines %+d, traps %+d@." dl.A.d_cfl
        dl.A.d_trampolines dl.A.d_traps
  | None -> ());
  match json with
  | Some path ->
      let oc = open_out path in
      output_string oc (A.to_json ?dir attr);
      close_out oc;
      Format.printf "wrote report %s@." path
  | None -> ()

let source workload =
  let prog =
    match workload with
    | "quickstart" ->
        Icfg_workloads.Gen.build
          { Icfg_workloads.Gen.default_spec with Icfg_workloads.Gen.name = "quickstart"; iters = 50 }
    | "docker" ->
        Icfg_workloads.Gen.build_go (Icfg_workloads.Gen.go_spec ~seed:1903 ~name:"docker" ~iters:150)
    | _ when String.length workload > 5 && String.sub workload 0 5 = "spec:" ->
        let bname = String.sub workload 5 (String.length workload - 5) in
        (match
           List.find_opt
             (fun b -> b.Icfg_workloads.Spec_suite.bench_name = bname)
             (Icfg_workloads.Spec_suite.benchmarks Arch.X86_64)
         with
        | Some b -> b.Icfg_workloads.Spec_suite.prog
        | None ->
            Printf.eprintf "unknown benchmark %s\n" bname;
            exit 1)
    | _ ->
        Printf.eprintf "source: supported workloads are quickstart, docker, spec:<name>\n";
        exit 1
  in
  Format.printf "%a" Icfg_codegen.Ir.pp_program prog

let disasm workload arch pie func =
  let bin, _ = load_workload workload arch pie in
  match func with
  | None -> print_string (Icfg_analysis.Listing.binary_listing bin)
  | Some name -> (
      let p = Parse.parse bin in
      match Parse.func p name with
      | Some fa -> print_string (Icfg_analysis.Listing.function_listing bin fa.Parse.fa_cfg)
      | None ->
          Printf.eprintf "no function %s\n" name;
          exit 1)

let dot workload arch pie func =
  let bin, _ = load_workload workload arch pie in
  let p = Parse.parse bin in
  match Parse.func p func with
  | Some fa -> print_string (Icfg_analysis.Listing.cfg_to_dot fa.Parse.fa_cfg)
  | None ->
      Printf.eprintf "no function %s\n" func;
      exit 1

let bench_cmd names =
  let all =
    Icfg_harness.Experiments.registry
    @ [
        (* A modest slice of the corpus robustness matrix; the full
           (default 300-binary) sweep lives in `bench/main.exe corpus`. *)
        ( "corpus",
          fun () ->
            Icfg_harness.Matrix.render
              (Icfg_harness.Matrix.run ~seed:7 ~count:60 ()) );
      ]
  in
  let names = if names = [] then List.map fst all else names in
  List.iter
    (fun n ->
      match List.assoc_opt n all with
      | Some f -> print_string (f ())
      | None -> Printf.eprintf "unknown experiment %s\n" n)
    names

(* ------------------------------------------------------------------ *)
(* Rewrite-as-a-service: the serve daemon and its submit client        *)
(* ------------------------------------------------------------------ *)

(* The serve loop deliberately contains no [exit 1] path and loads no
   workloads: every failure past startup is a typed response frame (or a
   dropped connection), never a dead daemon. The [exit 1]s above all live
   in one-shot workload loading, which only the other subcommands call. *)
let serve_stats_line tag srv =
  let module M = Icfg_core.Metrics in
  let snap = Icfg_service.Server.snapshot srv in
  let counter n = Option.value ~default:0 (M.find_counter snap n) in
  let gauge n = Option.value ~default:0 (M.find_gauge snap n) in
  Format.printf
    "icfg serve: %s %d requests (%d overloaded, %d errors; %d queued, %d in \
     flight)@."
    tag (counter "serve.requests") (counter "serve.overloaded")
    (counter "serve.errors") (gauge "sched.queue_depth")
    (gauge "sched.in_flight")

let serve_cmd socket bound workers stats_interval =
  let srv = Icfg_service.Server.start ~path:socket ~bound ~workers () in
  Format.printf
    "icfg serve: listening on %s (queue bound %d, %d executor domains)@."
    socket bound workers;
  Format.printf
    "press Ctrl-C to stop; SIGUSR1 or `icfg stats --socket %s` for live \
     telemetry@."
    socket;
  let stop = Atomic.make false in
  let dump = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  (* The handler only flips an atomic; the sleep loop below does the
     printing — signal-handler context stays trivial. *)
  let request_dump _ = Atomic.set dump true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
   with _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
   with _ -> ());
  (try Sys.set_signal Sys.sigusr1 (Sys.Signal_handle request_dump)
   with _ -> ());
  let now = Icfg_core.Metrics.now_ns in
  let last = ref (now ()) in
  while not (Atomic.get stop) do
    Unix.sleepf 0.2;
    if Atomic.exchange dump false then serve_stats_line "live:" srv;
    match stats_interval with
    | Some iv
      when iv > 0. && Int64.to_float (Int64.sub (now ()) !last) >= iv *. 1e9 ->
        last := now ();
        serve_stats_line "live:" srv
    | _ -> ()
  done;
  Icfg_service.Server.stop srv;
  serve_stats_line "stopped after" srv

let load_binfile_bytes path =
  Icfg_obj.Binfile.to_string (Icfg_obj.Binfile.load path)

(* Exit codes: 2 refused/rejected, 3 overloaded, 4 transport/usage/error,
   5 unrecoverable NeedFull (a [--ref] with no FILE to fall back to). *)
let submit_cmd socket approach file classify output register ref_digest
    patch_against =
  let module P = Icfg_service.Protocol in
  let module C = Icfg_service.Client in
  let need_file ctx =
    match file with
    | Some f -> f
    | None ->
        Format.printf "submit: FILE is required%s@." ctx;
        exit 4
  in
  C.with_connection socket @@ fun c ->
  if register then begin
    let s = load_binfile_bytes (need_file " with --register") in
    match C.register_bytes c s with
    | Ok (P.Registered { digest }) ->
        Format.printf "registered: %s (%d bytes)@." digest (String.length s)
    | Ok (P.Rejected { reason }) ->
        Format.printf "rejected: %s@." reason;
        exit 2
    | Ok _ ->
        Format.printf "unexpected response@.";
        exit 4
    | Error m ->
        Format.printf "transport error: %s@." m;
        exit 4
  end
  else begin
    (* With [fallback] (FILE's bytes), [Client] answers a NeedFull by
       sending FILE whole, which also re-registers it. *)
    let submit ?fallback payload =
      if classify then C.classify_payload c ~approach ?fallback payload
      else C.rewrite_payload c ~approach ?fallback payload
    in
    let resp =
      match (ref_digest, patch_against) with
      | Some _, Some _ ->
          Format.printf "submit: --ref and --patch-against are exclusive@.";
          exit 4
      | Some d, None ->
          submit ?fallback:(Option.map load_binfile_bytes file) (P.Ref d)
      | None, Some base_path ->
          let target = load_binfile_bytes (need_file " with --patch-against") in
          let base = load_binfile_bytes base_path in
          let bd = Icfg_service.Store.digest base in
          let ranges = P.diff_ranges ~base target in
          let patch =
            P.Patch { base = bd; total_len = String.length target; ranges }
          in
          let delta =
            List.fold_left (fun a (_, b) -> a + String.length b) 0 ranges
          in
          Format.printf
            "patch: %d ranges, %d delta bytes against base %s (%d bytes \
             full)@."
            (List.length ranges) delta bd (String.length target);
          submit ~fallback:target patch
      | None, None -> submit (P.Full (load_binfile_bytes (need_file "")))
    in
    match resp with
    | Ok (P.Rewritten { bin = out_bytes; digest; _ }) -> (
        Format.printf "rewritten: %d bytes on the wire, digest %s@."
          (String.length out_bytes) digest;
        match output with
        | Some path ->
            let oc = open_out_bin path in
            output_string oc out_bytes;
            close_out oc;
            Format.printf "wrote %s@." path
        | None -> ())
    | Ok (P.Refused { reason; digest; _ }) ->
        Format.printf "refused: %s (input digest %s)@." reason digest;
        exit 2
    | Ok (P.Rejected { reason }) ->
        Format.printf "rejected: %s@." reason;
        exit 2
    | Ok (P.Classified { cls; ns; digest; _ }) ->
        Format.printf "classified: %s (%.2f ms, input digest %s)@."
          (Icfg_harness.Matrix.cls_to_string cls)
          (ns /. 1e6) digest
    | Ok P.Overloaded ->
        Format.printf "overloaded: the daemon's request queue is full@.";
        exit 3
    | Ok (P.Error { message; _ }) ->
        Format.printf "error: %s@." message;
        exit 4
    | Ok (P.NeedFull { digest }) ->
        (* Only a [--ref] without FILE has no fallback to draw. *)
        Format.printf
          "need-full: the daemon does not hold %s (evicted or never \
           registered); pass FILE to fall back to a full upload@."
          digest;
        exit 5
    | Ok (P.Pong | P.StatsSnapshot _ | P.Registered _) ->
        Format.printf "unexpected response@.";
        exit 4
    | Error m ->
        Format.printf "transport error: %s@." m;
        exit 4
  end

(* ------------------------------------------------------------------ *)
(* Telemetry clients: icfg stats and icfg top                          *)
(* ------------------------------------------------------------------ *)

let human_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* One glyph per occupied log₂ bucket, height scaled to the fullest
   bucket: the whole latency distribution in a dozen columns. *)
let spark (h : Icfg_core.Metrics.histo) =
  match h.Icfg_core.Metrics.h_buckets with
  | [] -> ""
  | bs ->
      let lo = fst (List.hd bs) in
      let hi = fst (List.nth bs (List.length bs - 1)) in
      let arr = Array.make (hi - lo + 1) 0 in
      List.iter (fun (i, n) -> arr.(i - lo) <- n) bs;
      let mx = Array.fold_left max 1 arr in
      let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
      String.concat ""
        (Array.to_list
           (Array.map
              (fun n -> if n = 0 then " " else glyphs.(min 7 (n * 8 / mx)))
              arr))

let render_snapshot (snap : Icfg_core.Metrics.snapshot) =
  let module M = Icfg_core.Metrics in
  if snap.M.s_counters <> [] then begin
    Format.printf "counters:@.";
    List.iter
      (fun (k, v) -> Format.printf "  %-44s %d@." k v)
      snap.M.s_counters
  end;
  if snap.M.s_gauges <> [] then begin
    Format.printf "gauges:@.";
    List.iter
      (fun (k, v) -> Format.printf "  %-44s %d@." k v)
      snap.M.s_gauges
  end;
  if snap.M.s_histos <> [] then begin
    Format.printf "histograms:%38s count       mean@." "";
    List.iter
      (fun (k, h) ->
        Format.printf "  %-44s %-11d %-10s %s@." k h.M.h_count
          (human_ns (M.histo_mean h))
          (spark h))
      snap.M.s_histos
  end

let scrape socket ~flight =
  Icfg_service.Client.with_connection socket @@ fun c ->
  Icfg_service.Client.stats c ~flight ()

let stats_cmd socket json prom fl =
  match scrape socket ~flight:fl with
  | Ok (Icfg_service.Protocol.StatsSnapshot { snap; flight }) ->
      if fl then
        print_string (match flight with Some f -> f | None -> "{}\n")
      else if json then print_string (Icfg_core.Metrics.to_json snap)
      else if prom then print_string (Icfg_core.Metrics.to_prom snap)
      else render_snapshot snap
  | Ok _ ->
      Format.printf "unexpected response@.";
      exit 4
  | Error m ->
      Format.printf "transport error: %s@." m;
      exit 4
  | exception Unix.Unix_error (e, _, _) ->
      Format.printf "cannot reach daemon at %s: %s@." socket
        (Unix.error_message e);
      exit 4

let top_cmd socket interval iterations =
  let module M = Icfg_core.Metrics in
  let interval = if interval <= 0. then 2.0 else interval in
  let get n snap = Option.value ~default:0 (M.find_counter snap n) in
  let rec go i prev =
    let snap =
      match scrape socket ~flight:false with
      | Ok (Icfg_service.Protocol.StatsSnapshot { snap; _ }) -> snap
      | Ok _ | Error _ ->
          Format.printf "icfg top: lost the daemon at %s@." socket;
          exit 4
      | exception Unix.Unix_error (e, _, _) ->
          Format.printf "cannot reach daemon at %s: %s@." socket
            (Unix.error_message e);
          exit 4
    in
    (* Full refresh only when looping: a single-shot `top --iterations 1`
       (CI smoke) should not spray clear-screen codes into a log. *)
    if iterations <> 1 then Format.printf "\027[2J\027[H";
    let requests = get "serve.requests" snap in
    let d_req =
      match prev with None -> 0 | Some p -> requests - get "serve.requests" p
    in
    Format.printf
      "icfg top — %s   (refresh %.1fs)@.requests %d (+%d)   errors %d   \
       overloaded %d   queue %d   in-flight %d@."
      socket interval requests d_req (get "serve.errors" snap)
      (get "serve.overloaded" snap)
      (Option.value ~default:0 (M.find_gauge snap "sched.queue_depth"))
      (Option.value ~default:0 (M.find_gauge snap "sched.in_flight"));
    let latencies =
      List.filter
        (fun (k, _) -> String.length k >= 8 && String.sub k 0 8 = "request.")
        snap.M.s_histos
    in
    if latencies <> [] then begin
      Format.printf "@.%-46s %-9s %-10s@." "latency (approach:outcome)" "count"
        "mean";
      List.iter
        (fun (k, h) ->
          let label =
            String.sub k 16 (String.length k - 16)
            (* drop "request.latency:" *)
          in
          Format.printf "  %-44s %-9d %-10s %s@." label h.M.h_count
            (human_ns (M.histo_mean h))
            (spark h))
        latencies
    end;
    if iterations = 0 || i < iterations then begin
      Unix.sleepf interval;
      go (i + 1) (Some snap)
    end
  in
  go 1 None

let cmd_inspect =
  Cmd.v (Cmd.info "inspect" ~doc:"Compile a workload and print its layout.")
    Term.(const inspect $ workload_t $ arch_t $ pie_t)

let cmd_analyze =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Parse a workload: CFGs, jump tables, coverage.")
    Term.(const analyze $ workload_t $ arch_t $ pie_t)

let output_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~doc:"Write the rewritten binary to this file.")

let cmd_rewrite =
  Cmd.v (Cmd.info "rewrite" ~doc:"Rewrite a workload and print the statistics.")
    Term.(
      const rewrite_cmd $ workload_t $ arch_t $ pie_t $ mode_t $ output_t
      $ trace_t)

let cmd_verify =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the paper's strong correctness test: per-block counting,           original bytes destroyed, output and counts compared.")
    Term.(
      const verify_cmd $ workload_t $ arch_t $ pie_t $ mode_t $ trace_t)

let cmd_run =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a workload before and after rewriting and compare.")
    Term.(
      const run_cmd $ workload_t $ arch_t $ pie_t $ mode_t $ trace_t)

let report_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:
          "Also write the machine-readable report (schema icfg-report/1) to \
           $(docv)."
        ~docv:"FILE")

let cmd_report =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Rewrite a workload and print the coverage-attribution report: \
          per-function CFL/trampoline causes, the cause histogram, and the \
          mode's incremental delta vs the dir baseline.")
    Term.(
      const report_cmd $ workload_t $ arch_t $ pie_t $ mode_t $ report_json_t
      $ trace_t)

let func_opt_t =
  Arg.(value & opt (some string) None & info [ "f"; "function" ] ~doc:"Function name.")

let cmd_source =
  Cmd.v
    (Cmd.info "source" ~doc:"Print a workload's generated IR as C-like source.")
    Term.(const source $ workload_t)

let cmd_disasm =
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a workload (control-flow traversal listing).")
    Term.(const disasm $ workload_t $ arch_t $ pie_t $ func_opt_t)

let cmd_dot =
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a function's CFG as Graphviz dot.")
    Term.(
      const dot $ workload_t $ arch_t $ pie_t
      $ Arg.(required & opt (some string) None & info [ "f"; "function" ] ~doc:"Function name."))

let cmd_bench =
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures.")
    Term.(
      const bench_cmd
      $ Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"))

let socket_t =
  Arg.(
    value
    & opt string "/tmp/icfg.sock"
    & info [ "s"; "socket" ] ~doc:"Unix socket path of the daemon." ~docv:"PATH")

let cmd_serve =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the rewrite daemon: accept framed rewrite/classify requests on \
          a Unix socket and schedule them across a bounded queue of executor \
          domains. An answer depends only on the request's approach and \
          input bytes. A full queue answers with a typed Overloaded frame; a \
          crashing driver answers with a typed Error frame; the daemon keeps \
          serving through both.")
    Term.(
      const serve_cmd $ socket_t
      $ Arg.(
          value & opt int 64
          & info [ "queue-bound" ]
              ~doc:"Max queued requests before Overloaded refusals." ~docv:"K")
      $ Arg.(
          value & opt int 2
          & info [ "workers" ]
              ~doc:
                "Executor domains (each request body runs on its own domain: \
                 per-request trace isolation)."
              ~docv:"N")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "stats-interval" ]
              ~doc:
                "Print a live stats line every $(docv) seconds (SIGUSR1 \
                 prints one on demand)."
              ~docv:"SECS"))

let cmd_stats =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape a running icfg serve daemon's telemetry: counters, gauges \
          and log2 latency histograms (human, --json for icfg-metrics/1, \
          --prom for Prometheus text, --flight for the flight-recorder \
          dump). Answered inline by the daemon — works while it is \
          saturated, and never perturbs the request stream it reports on.")
    Term.(
      const stats_cmd $ socket_t
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit the icfg-metrics/1 JSON document.")
      $ Arg.(
          value & flag
          & info [ "prom" ] ~doc:"Emit the Prometheus text exposition.")
      $ Arg.(
          value & flag
          & info [ "flight" ]
              ~doc:
                "Emit the icfg-flight/1 flight-recorder dump: recent request \
                 summaries plus full traces of the slowest and every errored \
                 request."))

let cmd_top =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Refreshing terminal view of a running daemon: request/error \
          totals, queue and in-flight gauges, per-approach latency \
          histograms with sparklines.")
    Term.(
      const top_cmd $ socket_t
      $ Arg.(
          value & opt float 2.0
          & info [ "interval" ] ~doc:"Refresh period in seconds." ~docv:"SECS")
      $ Arg.(
          value & opt int 0
          & info [ "iterations" ]
              ~doc:"Stop after $(docv) refreshes (0: until interrupted)."
              ~docv:"N"))

let cmd_submit =
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one binary (an icfg Binfile, e.g. from rewrite --output) to \
          a running icfg serve daemon. Besides full uploads, the incremental \
          protocol can upload once ($(b,--register)), then name the binary \
          by digest ($(b,--ref)) or ship only a sparse byte-delta against a \
          registered base ($(b,--patch-against)). Exit codes: 2 \
          refused/rejected, 3 overloaded, 4 error, 5 unrecoverable \
          need-full.")
    Term.(
      const submit_cmd $ socket_t
      $ Arg.(
          value & opt string "ours/jt"
          & info [ "approach" ]
              ~doc:
                "Roster approach: srbi | ir-lowering | insn-patching | \
                 dyn-translation | ours/dir | ours/jt | ours/func-ptr."
              ~docv:"NAME")
      $ Arg.(
          value
          & pos 0 (some string) None
          & info [] ~docv:"FILE"
              ~doc:
                "Binfile to submit. Optional with --ref (where it serves \
                 only as the full-upload fallback if the daemon no longer \
                 holds the digest); required otherwise.")
      $ Arg.(
          value & flag
          & info [ "classify" ]
              ~doc:
                "Run the full corpus-matrix cell in the daemon (original run \
                 + rewrite + VM verification) instead of returning the \
                 rewritten bytes.")
      $ output_t
      $ Arg.(
          value & flag
          & info [ "register" ]
              ~doc:
                "Upload FILE into the daemon's content-addressed store and \
                 print its digest; later submits can use --ref/--patch-against \
                 instead of re-uploading.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "ref" ]
              ~doc:
                "Submit a registered binary by digest (32 wire bytes instead \
                 of the binary). If the daemon answers NeedFull and FILE was \
                 given, falls back to a full upload; without FILE, exits 5."
              ~docv:"DIGEST")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "patch-against" ]
              ~doc:
                "Ship FILE as a sparse byte-delta against base Binfile \
                 $(docv), which must have been registered. If the daemon \
                 answers NeedFull, FILE is uploaded whole."
              ~docv:"BASEFILE"))

let () =
  let info =
    Cmd.info "icfg" ~version:"1.0.0"
      ~doc:"Incremental CFG patching for binary rewriting (ASPLOS 2021)"
  in
  exit (Cmd.eval (Cmd.group info [ cmd_inspect; cmd_analyze; cmd_rewrite; cmd_run; cmd_verify; cmd_report; cmd_source; cmd_disasm; cmd_dot; cmd_bench; cmd_serve; cmd_submit; cmd_stats; cmd_top ]))
