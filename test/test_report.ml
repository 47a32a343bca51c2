(* Reconciliation battery for the attribution + reporting layer (PR 4).

   Contracts under test:

   1. Attribution exactly tiles [Rewriter.stats]: the per-cause totals sum
      to the aggregate counters for every mode and failure model — no site
      is double-counted or dropped.

   2. Attribution is a pure function of the rewrite output: a rewrite
      whose layout a warm cache pinned has the same bytes and the same
      record as an uncached one (it is assembled from the placement
      results, never the other way around).

   3. Injected graded failures (section 4.3) surface as their specific
      cause: [Bound_over] -> [Jt_bound_over], [Bound_under] ->
      [Jt_bound_under], spill-tracking off -> [Jt_unresolved_spill].

   4. The bench regression gate ([Bench_diff]) classifies differences per
      the gates OLD's rows declare: lost rows and gated fields gate, time
      growth gates only under --gate with matching core counts, new rows,
      fields and gates never gate, and every gate declared in the
      committed baselines trips when its field is pushed past its policy
      or removed.

   5. Failure-path observability: [Trace.with_file] writes the trace even
      when the traced function raises, and [Verify.strong_test] returns a
      populated trace even when the verdict is a failure. *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Runner = Icfg_harness.Runner
module Bench_diff = Icfg_harness.Bench_diff
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Failure_model = Icfg_analysis.Failure_model
module A = Attribution

let opts mode =
  { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

let first_bench arch =
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

let modes = [ Mode.Dir; Mode.Jt; Mode.Func_ptr ]

(* ------------------------------------------------------------------ *)
(* 1. Attribution totals tile the stats record                         *)
(* ------------------------------------------------------------------ *)

let place_count attr c =
  List.fold_left
    (fun n (r : A.func_row) ->
      n
      + List.length
          (List.filter (fun (s : A.block_site) -> s.A.bs_place = Some c)
             r.A.fr_sites))
    0 attr.A.a_rows

let check_reconciles label (rw : Rewriter.t) =
  let st = rw.Rewriter.rw_stats and attr = rw.Rewriter.rw_attribution in
  let check name want got =
    Alcotest.(check int) (Printf.sprintf "%s: %s" label name) want got
  in
  check "cfl blocks" st.Rewriter.s_cfl_blocks (A.cfl_total attr);
  check "trampolines" st.Rewriter.s_trampolines (A.tramp_total attr);
  check "trap trampolines" st.Rewriter.s_trap_trampolines (A.trap_total attr);
  check "short" st.Rewriter.s_short_trampolines (place_count attr A.Tramp_short);
  check "long" st.Rewriter.s_long_trampolines (place_count attr A.Tramp_long);
  check "hop" st.Rewriter.s_multi_hop (place_count attr A.Tramp_hop);
  check "trap causes sum"
    st.Rewriter.s_trap_trampolines
    (place_count attr A.Trap_no_reach
    + place_count attr A.No_scratch_space
    + place_count attr A.No_hop_kind
    + place_count attr A.Scratch_pool_disabled);
  check "funcs total" st.Rewriter.s_funcs_total (List.length attr.A.a_rows);
  check "funcs instrumented" st.Rewriter.s_funcs_instrumented
    (List.length
       (List.filter (fun r -> r.A.fr_instrumented) attr.A.a_rows));
  check "blocks" st.Rewriter.s_blocks
    (List.fold_left (fun n r -> n + r.A.fr_blocks) 0 attr.A.a_rows);
  (* Every placement cause on a site is a trampoline cause, and every CFL
     cause is from the CFL axis. *)
  List.iter
    (fun (r : A.func_row) ->
      List.iter
        (fun (s : A.block_site) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: cfl axis at %x" label s.A.bs_addr)
            "cfl" (A.axis s.A.bs_cfl);
          match s.A.bs_place with
          | Some c ->
              Alcotest.(check string)
                (Printf.sprintf "%s: tramp axis at %x" label s.A.bs_addr)
                "tramp" (A.axis c)
          | None -> ())
        r.A.fr_sites)
    attr.A.a_rows

let reconciliation () =
  let bin = first_bench Arch.X86_64 in
  List.iter
    (fun (fm, fm_name) ->
      List.iter
        (fun mode ->
          let rw = Runner.rewrite ~fm ~options:(opts mode) bin in
          check_reconciles (Printf.sprintf "%s/%s" fm_name (Mode.name mode)) rw)
        modes)
    [ (Failure_model.ours, "ours"); (Failure_model.srbi, "srbi") ]

(* The baselines plumb their own options; make sure an every-block
   placement (SRBI-like) reconciles too, trap causes included. *)
let reconciliation_srbi_like () =
  let bin = first_bench Arch.X86_64 in
  let rw =
    Runner.rewrite ~options:(Rewriter.srbi_like Rewriter.P_empty) bin
  in
  check_reconciles "srbi-like" rw;
  Alcotest.(check bool) "every-block placement recorded" true
    (A.count rw.Rewriter.rw_attribution A.Cfl_every_block > 0)

(* ------------------------------------------------------------------ *)
(* 2. Cache-independence and mode monotonicity                         *)
(* ------------------------------------------------------------------ *)

let section_image (s : Section.t) =
  (s.Section.name, s.Section.vaddr, Bytes.to_string s.Section.data,
   Section.size s)

let attribution_cache_independent () =
  let bin = first_bench Arch.X86_64 in
  List.iter
    (fun mode ->
      let options = opts mode in
      let base = Runner.rewrite ~options bin in
      let cache = Cache.create () in
      ignore (Runner.rewrite ~options ~cache bin);
      let rw = Runner.rewrite ~options ~cache bin in
      Alcotest.(check bool)
        (Printf.sprintf "%s: attribution identical when pinned" (Mode.name mode))
        true
        (rw.Rewriter.rw_attribution = base.Rewriter.rw_attribution);
      Alcotest.(check bool)
        (Printf.sprintf "%s: bytes identical when pinned" (Mode.name mode))
        true
        (List.map section_image rw.Rewriter.rw_binary.Binary.sections
        = List.map section_image base.Rewriter.rw_binary.Binary.sections))
    modes

let mode_monotone () =
  let bin = first_bench Arch.X86_64 in
  let attrs =
    List.map
      (fun m ->
        (Runner.rewrite ~options:(opts m) bin).Rewriter.rw_attribution)
      modes
  in
  match attrs with
  | [ dir; jt; fp ] ->
      Alcotest.(check bool) "cfl non-increasing" true
        (A.cfl_total dir >= A.cfl_total jt && A.cfl_total jt >= A.cfl_total fp);
      Alcotest.(check bool) "traps non-increasing" true
        (A.trap_total dir >= A.trap_total jt
        && A.trap_total jt >= A.trap_total fp);
      let d = A.delta ~dir jt in
      Alcotest.(check int) "delta matches totals"
        (A.cfl_total jt - A.cfl_total dir)
        d.A.d_cfl;
      Alcotest.(check bool) "jt mode delta removes cfl blocks" true
        (d.A.d_cfl <= 0)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* 3. Injected graded failures surface as their specific cause         *)
(* ------------------------------------------------------------------ *)

let graded_spec =
  { Gen.default_spec with Gen.seed = 42; name = "graded"; n_switch = 3; iters = 40 }

let attr_of ~fm bin =
  (Runner.rewrite ~fm ~options:(opts Mode.Dir) bin).Rewriter.rw_attribution

let graded_causes () =
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build graded_spec) in
  let base = attr_of ~fm:Failure_model.ours bin in
  Alcotest.(check bool) "exact bounds: resolved-exact tables" true
    (A.count base A.Jt_resolved_exact > 0);
  Alcotest.(check int) "exact bounds: no bound causes" 0
    (A.count base A.Jt_bound_over + A.count base A.Jt_bound_under);
  let over_fm =
    {
      (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 8))
      with
      Failure_model.extend_to_known_data = false;
    }
  in
  let over = attr_of ~fm:over_fm bin in
  Alcotest.(check bool) "over-approx surfaces as jt/bound-over" true
    (A.count over A.Jt_bound_over > 0);
  Alcotest.(check int) "over-approx: no under causes" 0
    (A.count over A.Jt_bound_under);
  let under_fm =
    Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2)
  in
  let under = attr_of ~fm:under_fm bin in
  Alcotest.(check bool) "under-approx surfaces as jt/bound-under" true
    (A.count under A.Jt_bound_under > 0)

let graded_spill () =
  (* A switch whose table base is spilled to the stack: SRBI's analyses
     (no spill tracking, no layout heuristic) fail the slice at the spill
     and leave the function uninstrumented — both facts must be visible. *)
  let spec = { graded_spec with Gen.name = "graded-srbi"; n_hard_spill = 1 } in
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build spec) in
  let base = attr_of ~fm:Failure_model.ours bin in
  Alcotest.(check int) "ours: no spill causes" 0
    (A.count base A.Jt_unresolved_spill);
  Alcotest.(check int) "ours: everything instrumented" 0
    (A.count base A.Unresolved_indirect_jump);
  let srbi = attr_of ~fm:Failure_model.srbi bin in
  Alcotest.(check bool) "srbi: spill surfaces as jt/unresolved-spill" true
    (A.count srbi A.Jt_unresolved_spill > 0);
  Alcotest.(check bool) "srbi: function left uninstrumented" true
    (A.count srbi A.Unresolved_indirect_jump > 0);
  (* The spill cause lives on the row of the function that failed. *)
  Alcotest.(check bool) "cause attributed to the failed function" true
    (List.exists
       (fun (r : A.func_row) ->
         r.A.fr_fail = Some A.Unresolved_indirect_jump
         && List.exists (fun (_, c) -> c = A.Jt_unresolved_spill) r.A.fr_jt)
       srbi.A.a_rows)

(* QCheck: the specific cause appears on any generated workload whose
   tables the full model resolves. *)
let graded_spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 100_000 in
  let* n_switch = int_range 1 3 in
  return
    {
      Gen.default_spec with
      Gen.seed;
      name = Printf.sprintf "gradedq%d" seed;
      n_switch;
      iters = 8;
    }

let graded_causes_qcheck =
  QCheck2.Test.make ~count:10
    ~name:"report: injected bound failures surface as their cause"
    ~print:(fun spec -> Printf.sprintf "seed=%d" spec.Gen.seed)
    graded_spec_gen
    (fun spec ->
      let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build spec) in
      let base = attr_of ~fm:Failure_model.ours bin in
      let resolved = A.count base A.Jt_resolved_exact in
      resolved = 0
      ||
      let over_fm =
        {
          (Failure_model.with_bounds Failure_model.ours
             (Failure_model.Bound_over 8))
          with
          Failure_model.extend_to_known_data = false;
        }
      in
      let under_fm =
        Failure_model.with_bounds Failure_model.ours
          (Failure_model.Bound_under 2)
      in
      A.count (attr_of ~fm:over_fm bin) A.Jt_bound_over > 0
      && A.count (attr_of ~fm:under_fm bin) A.Jt_bound_under > 0)

(* ------------------------------------------------------------------ *)
(* 4. The bench regression gate                                        *)
(* ------------------------------------------------------------------ *)

(* A minimal icfg-bench-micro/2 document builder: [row] renders one row,
   gates given as raw JSON policies. *)
let bag render l =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (render v)) l)

let row ?(times = []) ?(counters = []) ?(gates = []) section name =
  Printf.sprintf
    "{\"section\": \"%s\", \"name\": \"%s\", \"times\": {%s}, \"counters\": \
     {%s}, \"gates\": {%s}}"
    section name
    (bag (Printf.sprintf "%.1f") times)
    (bag (Printf.sprintf "%g") counters)
    (bag Fun.id gates)

let doc ?(cores = 1) rows =
  Printf.sprintf
    "{\"schema\": \"icfg-bench-micro/2\", \"cores\": %d, \"rows\": [%s]}" cores
    (String.concat ", " rows)

let worse_higher = {|"worse_higher"|}
let at_most_0 = {|{"policy": "bound", "max": 0}|}

let diff_ok ?gate old_s new_s =
  match Bench_diff.diff_strings ?gate old_s new_s with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "diff failed: %s" e

let regressed metric fs =
  List.exists
    (fun f ->
      f.Bench_diff.f_severity = Bench_diff.Regression
      && f.Bench_diff.f_metric = metric)
    fs

let bench_diff_parser () =
  (match Bench_diff.parse_json "{\"a\": [1, -2.5e3, \"x\\n\\\"y\", null, true]}" with
  | Ok
      (Bench_diff.Obj
        [
          ( "a",
            Bench_diff.List
              [
                Bench_diff.Num 1.;
                Bench_diff.Num -2500.;
                Bench_diff.Str "x\n\"y";
                Bench_diff.Null;
                Bench_diff.Bool true;
              ] );
        ]) ->
      ()
  | Ok _ -> Alcotest.fail "parsed to the wrong value"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Bench_diff.parse_json "{\"a\": 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated JSON");
  match Bench_diff.diff_strings "{}" "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-bench-micro document"

let bench_diff_self () =
  let d =
    doc
      [
        row "micro" "parse" ~times:[ ("ns_per_run", 100.) ];
        row "stages" "counters"
          ~counters:[ ("rewrite/trampolines:trap", 3.) ]
          ~gates:[ ("rewrite/trampolines:trap", worse_higher) ];
      ]
  in
  Alcotest.(check int) "self-diff is clean" 0
    (List.length (diff_ok ~gate:10. d d))

let bench_diff_counters () =
  let trap = "rewrite/trampolines:trap" in
  let mk ?(gated = true) counters =
    doc
      [
        row "stages" "counters" ~counters
          ~gates:(if gated then [ (trap, worse_higher) ] else []);
      ]
  in
  let mk' trap_n blocks = mk [ ("rewrite/blocks", blocks); (trap, trap_n) ] in
  (* Worse-is-higher counter increase gates... *)
  let f = diff_ok (mk' 3. 100.) (mk' 4. 100.) in
  Alcotest.(check bool) "trap counter increase is a regression" true
    (Bench_diff.has_regression f);
  (* ...its decrease and any neutral-counter movement do not. *)
  Alcotest.(check bool) "trap counter decrease is informational" false
    (Bench_diff.has_regression (diff_ok (mk' 4. 100.) (mk' 3. 100.)));
  let f = diff_ok (mk' 3. 100.) (mk' 3. 150.) in
  Alcotest.(check bool) "neutral counter change reported" true (f <> []);
  Alcotest.(check bool) "neutral counter change not a regression" false
    (Bench_diff.has_regression f);
  (* A gated counter that vanishes from NEW is a regression; an ungated
     one is only reported. *)
  let f = diff_ok (mk' 0. 100.) (mk [ ("rewrite/blocks", 100.) ]) in
  Alcotest.(check bool) "vanished gated counter is a regression" true
    (regressed ("stages:counters:" ^ trap) f);
  let f = diff_ok (mk' 0. 100.) (mk [ (trap, 0.) ]) in
  Alcotest.(check bool) "vanished ungated counter is reported" true (f <> []);
  Alcotest.(check bool) "vanished ungated counter never gates" false
    (Bench_diff.has_regression f)

let bench_diff_times () =
  let mk ?cores ns = doc ?cores [ row "micro" "parse" ~times:[ ("ns_per_run", ns) ] ] in
  Alcotest.(check bool) "time growth beyond the gate is a regression" true
    (Bench_diff.has_regression (diff_ok ~gate:50. (mk 100_000.) (mk 200_000.)));
  Alcotest.(check bool) "time growth within the gate passes" false
    (Bench_diff.has_regression (diff_ok ~gate:50. (mk 100_000.) (mk 120_000.)));
  Alcotest.(check bool) "sub-noise-floor growth never gates" false
    (Bench_diff.has_regression (diff_ok ~gate:50. (mk 60.) (mk 141.)));
  Alcotest.(check bool) "no gate: times never gate" false
    (Bench_diff.has_regression (diff_ok (mk 100_000.) (mk 10_000_000.)));
  Alcotest.(check bool) "different core counts: times never gate" false
    (Bench_diff.has_regression
       (diff_ok ~gate:50. (mk ~cores:1 100_000.) (mk ~cores:8 10_000_000.)))

let bench_diff_rows () =
  let with_rows names =
    doc (List.map (fun n -> row "stages" n ~times:[ ("ns", 500.) ]) names)
  in
  Alcotest.(check bool) "lost row is a regression" true
    (Bench_diff.has_regression
       (diff_ok (with_rows [ "rewrite"; "emit" ]) (with_rows [ "emit" ])));
  Alcotest.(check bool) "new row is informational" false
    (Bench_diff.has_regression
       (diff_ok (with_rows [ "rewrite" ]) (with_rows [ "rewrite"; "emit" ])))

(* The added-row policy: anything only the NEW run knows about is reported
   with the distinct [Added] severity and never gates — landing new bench
   rows, fields or gates must not trip the gate against an older
   baseline. *)
let bench_diff_added () =
  let added fs =
    List.filter (fun f -> f.Bench_diff.f_severity = Bench_diff.Added) fs
  in
  (* New micro row -> one Added finding, no regression. *)
  let micro names =
    doc (List.map (fun (n, ns) -> row "micro" n ~times:[ ("ns_per_run", ns) ]) names)
  in
  let f =
    diff_ok ~gate:50.
      (micro [ ("parse", 100_000.) ])
      (micro [ ("parse", 100_000.); ("cache-cold", 900_000.) ])
  in
  Alcotest.(check int) "new row is Added" 1 (List.length (added f));
  Alcotest.(check bool) "new row never gates" false (Bench_diff.has_regression f);
  (* New counter on an existing row -> Added, no regression — even with a
     worse-is-higher gate declared, since there is nothing to compare. *)
  let f =
    diff_ok ~gate:50.
      (doc [ row "stages" "counters" ])
      (doc
         [
           row "stages" "counters"
             ~counters:[ ("cache.evict_corrupt", 2.) ]
             ~gates:[ ("cache.evict_corrupt", worse_higher) ];
         ])
  in
  Alcotest.(check int) "new counter is Added" 1 (List.length (added f));
  Alcotest.(check bool) "new counter never gates" false
    (Bench_diff.has_regression f);
  (* A gate only NEW declares is Added and waits for the next baseline. *)
  let f =
    diff_ok
      (doc [ row "cache" "warm" ~counters:[ ("mismatches", 0.) ] ])
      (doc
         [
           row "cache" "warm"
             ~counters:[ ("mismatches", 3.) ]
             ~gates:[ ("mismatches", at_most_0) ];
         ])
  in
  Alcotest.(check int) "new gate is Added" 1 (List.length (added f));
  Alcotest.(check bool) "new gate never gates" false (Bench_diff.has_regression f);
  (* A whole new section in NEW (old run predates the cache rows) is all
     Added findings. *)
  let f =
    diff_ok ~gate:50. (doc [])
      (doc
         [
           row "cache" "cache-warm-identical"
             ~times:[ ("ns_per_run", 100_000.) ]
             ~counters:[ ("hits", 9.) ];
         ])
  in
  Alcotest.(check bool) "new cache section never gates" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "new cache section is reported" true (added f <> []);
  (* The render groups Added findings under their own heading. *)
  let has_sub sub s =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render has an added section" true
    (has_sub "added" (Bench_diff.render f))

(* Cache rows: times gate like micro rows, counters are reported when they
   move, and the declared [evict_corrupt] gate trips on growth. *)
let bench_diff_cache_section () =
  let mk ?(ns = 100_000.) ?(corrupt = 0.) counters =
    doc
      [
        row "cache" "cache-warm"
          ~times:[ ("ns_per_run", ns) ]
          ~counters:(("evict_corrupt", corrupt) :: counters)
          ~gates:[ ("evict_corrupt", worse_higher) ];
      ]
  in
  Alcotest.(check int) "identical cache rows diff clean" 0
    (List.length (diff_ok ~gate:50. (mk [ ("hits", 9.) ]) (mk [ ("hits", 9.) ])));
  Alcotest.(check bool) "cache time growth beyond the gate is a regression" true
    (Bench_diff.has_regression
       (diff_ok ~gate:50. (mk []) (mk ~ns:200_000. [])));
  Alcotest.(check bool) "evict_corrupt increase is a regression" true
    (Bench_diff.has_regression (diff_ok (mk []) (mk ~corrupt:1. [])));
  let f = diff_ok (mk [ ("hits", 9.) ]) (mk [ ("hits", 3.) ]) in
  Alcotest.(check bool) "hit-count movement is reported" true (f <> []);
  Alcotest.(check bool) "hit-count movement never gates" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "lost cache row is a regression" true
    (Bench_diff.has_regression (diff_ok (mk []) (doc [])))

(* The warm-path gate, declared on the cache rows: each warm row stays
   within the declared multiple of the uncached rewrite, its layout
   counters are held exactly, and no row reports a mismatch. Bounds judge
   NEW alone, with or without --gate, and a passing bound is reported as
   [Info]. *)
let bench_diff_warm_path () =
  let exact = {|"exact"|} in
  let bound limit =
    Printf.sprintf
      {|{"policy": "bound", "max": %g, "of": ["cache", "cache-uncached-rewrite", "ns_per_run"]}|}
      limit
  in
  let mk ?(ratio = 1.02) ?(limit = 1.3) ?(moved = 0.) ?(mismatches = 0.)
      ?(data = true) () =
    let warm name ns counters =
      row "cache" name
        ~times:[ ("ns_per_run", ns) ]
        ~counters
        ~gates:
          [
            ("ns_per_run", bound limit);
            ("layout.moved", exact);
            ("mismatches", at_most_0);
          ]
    in
    doc
      ([
         row "cache" "cache-uncached-rewrite"
           ~times:[ ("ns_per_run", 1_000_000.) ];
         warm "cache-warm-perturbed" (1_000_000. *. ratio)
           [ ("layout.moved", 1.); ("mismatches", 0.) ];
       ]
      @
      if data then
        [
          warm "cache-warm-data-edit" 1_050_000.
            [ ("layout.moved", moved); ("mismatches", mismatches) ];
        ]
      else [])
  in
  let check ?(base = mk ()) s = diff_ok base s in
  let f = check (mk ()) in
  Alcotest.(check bool) "healthy doc passes" false (Bench_diff.has_regression f);
  Alcotest.(check bool) "passing ratio is reported as Info" true
    (List.exists
       (fun x ->
         x.Bench_diff.f_severity = Bench_diff.Info
         && x.Bench_diff.f_metric = "cache:cache-warm-perturbed:ns_per_run")
       f);
  Alcotest.(check bool) "ratio over the declared limit gates" true
    (Bench_diff.has_regression (check (mk ~ratio:1.5 ())));
  Alcotest.(check bool) "a tighter declared limit gates" true
    (Bench_diff.has_regression (check ~base:(mk ~limit:1.01 ()) (mk ())));
  Alcotest.(check bool) "a data edit that moves a segment gates" true
    (regressed "cache:cache-warm-data-edit:layout.moved"
       (check (mk ~moved:1. ())));
  Alcotest.(check bool) "a mismatching warm output gates" true
    (regressed "cache:cache-warm-data-edit:mismatches"
       (check (mk ~mismatches:1. ())));
  Alcotest.(check bool) "missing data-edit row gates" true
    (Bench_diff.has_regression (check (mk ~data:false ())));
  Alcotest.(check bool) "missing warm rows gate" true
    (Bench_diff.has_regression (check (doc [])));
  match Bench_diff.diff_strings (mk ()) "{\"schema\": \"nope\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema must be an error"

(* The corpus section: deterministic pass rates gate unconditionally on a
   drop (no --gate, no noise floor), rises and refusal-count movement are
   informational, new refusal keys are Added, incomparable sweeps (cells
   differ) never gate, and row loss gates like everywhere else. *)
let bench_diff_corpus_section () =
  let mk ?(cells = 48.) ?(p50 = 1_000_000.) ?(refusals = []) pass =
    doc
      [
        row "corpus" "ours/jt"
          ~times:[ ("p50_ns", p50); ("p95_ns", 10. *. p50) ]
          ~counters:
            ([ ("cells", cells); ("pass_rate_pct", pass) ]
            @ List.map (fun (k, n) -> ("refusal:" ^ k, n)) refusals)
          ~gates:
            [
              ( "pass_rate_pct",
                {|{"policy": "worse_lower", "if_same": "cells"}|} );
            ];
      ]
  in
  Alcotest.(check int) "identical corpus rows diff clean" 0
    (List.length (diff_ok ~gate:50. (mk 100.) (mk 100.)));
  Alcotest.(check bool) "pass-rate drop gates even without --gate" true
    (Bench_diff.has_regression (diff_ok (mk 100.) (mk 97.9)));
  let f = diff_ok (mk 95.8) (mk 100.) in
  Alcotest.(check bool) "pass-rate rise is reported" true (f <> []);
  Alcotest.(check bool) "pass-rate rise never gates" false
    (Bench_diff.has_regression f);
  let f = diff_ok (mk ~cells:48. 100.) (mk ~cells:96. 97.9) in
  Alcotest.(check bool) "incomparable corpus sizes never gate" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "incomparable corpus sizes are reported" true (f <> []);
  (* Refusal histograms: movement is Info, a new key is Added, neither
     gates. *)
  let f =
    diff_ok
      (mk ~refusals:[ ("tramp/trap", 3.) ] 90.)
      (mk ~refusals:[ ("tramp/trap", 5.) ] 90.)
  in
  Alcotest.(check bool) "refusal-count movement is reported" true (f <> []);
  Alcotest.(check bool) "refusal-count movement never gates" false
    (Bench_diff.has_regression f);
  let f =
    diff_ok
      (mk ~refusals:[ ("tramp/trap", 3.) ] 90.)
      (mk ~refusals:[ ("tramp/trap", 3.); ("feature/non-pie", 1.) ] 90.)
  in
  Alcotest.(check bool) "new refusal key is Added" true
    (List.exists (fun x -> x.Bench_diff.f_severity = Bench_diff.Added) f);
  Alcotest.(check bool) "new refusal key never gates" false
    (Bench_diff.has_regression f);
  (* Times on corpus rows follow the normal time policy. *)
  Alcotest.(check bool) "corpus p50 growth gates under --gate" true
    (Bench_diff.has_regression
       (diff_ok ~gate:50. (mk ~p50:1_000_000. 100.) (mk ~p50:2_000_000. 100.)));
  Alcotest.(check bool) "corpus p50 growth without --gate never gates" false
    (Bench_diff.has_regression
       (diff_ok (mk ~p50:1_000_000. 100.) (mk ~p50:2_000_000. 100.)));
  (* Rows: loss gates, a corpus section the OLD baseline predates is all
     Added and passes. *)
  Alcotest.(check bool) "lost corpus row is a regression" true
    (Bench_diff.has_regression (diff_ok (mk 100.) (doc [])));
  let f = diff_ok ~gate:50. (doc []) (mk 100.) in
  Alcotest.(check bool) "new corpus section never gates" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "new corpus section is reported as Added" true
    (List.exists (fun x -> x.Bench_diff.f_severity = Bench_diff.Added) f)

(* The committed baselines against themselves and against mutated copies
   of themselves. Each must pass every gate it declares, list every bound
   as [Info], and report a Regression naming each gated field when that
   field is pushed past its policy by the smallest step or removed. This
   also guards the bench/main.ml writer and the parser against drifting
   apart. *)
let baseline name =
  let path =
    List.find_opt Sys.file_exists
      [ "bench/baseline/" ^ name; "../bench/baseline/" ^ name ]
  in
  match path with
  | None -> Alcotest.failf "bench/baseline/%s not found" name
  | Some p -> (
      match
        Bench_diff.parse_json (In_channel.with_open_bin p In_channel.input_all)
      with
      | Ok j -> j
      | Error e -> Alcotest.failf "%s: %s" name e)

let member k = function Bench_diff.Obj l -> List.assoc_opt k l | _ -> None
let rows_of d =
  match member "rows" d with Some (Bench_diff.List l) -> l | _ -> []

let key_of r =
  match (member "section" r, member "name" r) with
  | Some (Bench_diff.Str s), Some (Bench_diff.Str n) -> s ^ ":" ^ n
  | _ -> ""

let value_of d ~key ~field =
  let r = List.find (fun r -> key_of r = key) (rows_of d) in
  match
    List.find_map
      (fun b -> Option.bind (member b r) (member field))
      [ "times"; "counters" ]
  with
  | Some (Bench_diff.Num v) -> v
  | _ -> Alcotest.failf "%s:%s has no value" key field

(* [d] with [field] of row [key] set to [v], or removed when [v] is None. *)
let mutate d ~key ~field v =
  let map f = function Bench_diff.Obj l -> Bench_diff.Obj (f l) | j -> j in
  let set =
    List.filter_map (fun (k, x) ->
        if k <> field then Some (k, x)
        else Option.map (fun v -> (k, Bench_diff.Num v)) v)
  in
  let row r =
    if key_of r <> key then r
    else
      map
        (List.map (fun (k, b) ->
             (k, if k = "times" || k = "counters" then map set b else b)))
        r
  in
  map
    (List.map (fun (k, x) ->
         (k, if k = "rows" then Bench_diff.List (List.map row (rows_of d)) else x)))
    d

(* The value that breaks gate [g] on [key:field] by the smallest step. *)
let violation d ~key ~field g =
  let v = value_of d ~key ~field in
  let policy =
    match (g, member "policy" g) with
    | Bench_diff.Str p, _ | _, Some (Bench_diff.Str p) -> p
    | _ -> "?"
  in
  let scale () =
    match member "of" g with
    | Some (Bench_diff.List [ Str s; Str n; Str f ]) ->
        value_of d ~key:(s ^ ":" ^ n) ~field:f
    | _ -> 1.
  in
  match (policy, member "max" g, member "min" g) with
  | ("worse_higher" | "exact"), _, _ -> v +. 1.
  | "worse_lower", _, _ -> v -. 1.
  | "bound", Some (Bench_diff.Num k), _ -> (k *. scale ()) +. 1.
  | "bound", _, Some (Bench_diff.Num k) -> (k *. scale ()) -. 1.
  | _ -> Alcotest.failf "%s:%s: unknown gate %s" key field policy

let bench_diff_real_baseline () =
  let diff old nw =
    match Bench_diff.diff ~gate:50. old nw with
    | Ok f -> f
    | Error e -> Alcotest.failf "diff failed: %s" e
  in
  let docs =
    List.map (fun n -> (n, baseline n)) [ "BENCH_micro.json"; "BENCH_corpus.json" ]
  in
  let declared =
    List.concat_map
      (fun (n, d) ->
        List.concat_map
          (fun r ->
            match member "gates" r with
            | Some (Bench_diff.Obj gs) ->
                List.map (fun (f, g) -> (n, d, key_of r, f, g)) gs
            | _ -> [])
          (rows_of d))
      docs
  in
  (* Unmutated: no regression, and every bound is listed with its value. *)
  List.iter
    (fun (n, d) ->
      let f = diff d d in
      Alcotest.(check (list string))
        (n ^ " passes every gate it declares") []
        (List.filter_map
           (fun x ->
             if x.Bench_diff.f_severity = Bench_diff.Info then None
             else Some x.Bench_diff.f_metric)
           f);
      List.iter
        (fun (n', _, key, field, g) ->
          if n' = n && member "policy" g = Some (Bench_diff.Str "bound") then
            Alcotest.(check bool)
              (Printf.sprintf "%s:%s bound listed as Info" key field)
              true
              (List.exists
                 (fun x ->
                   x.Bench_diff.f_severity = Bench_diff.Info
                   && x.Bench_diff.f_metric = key ^ ":" ^ field)
                 f))
        declared)
    docs;
  (* Every declared gate, pushed past its policy and removed. *)
  List.iter
    (fun (_, d, key, field, g) ->
      let metric = key ^ ":" ^ field in
      Alcotest.(check bool) (metric ^ " pushed past its gate regresses") true
        (regressed metric
           (diff d (mutate d ~key ~field (Some (violation d ~key ~field g)))));
      Alcotest.(check bool) (metric ^ " removed regresses") true
        (regressed metric (diff d (mutate d ~key ~field None))))
    declared;
  (* Five doctored values, each well past its gate: a trap count of 99,
     three daemon errors, a 42% memo hit rate, a 90% pass rate and a
     warm-perturbed row at 1.5x warm-identical. *)
  List.iter
    (fun (n, key, field, v) ->
      let d = List.assoc n docs in
      let metric = key ^ ":" ^ field in
      Alcotest.(check bool) (metric ^ " is declared") true
        (List.exists (fun (_, _, k, f, _) -> k = key && f = field) declared);
      Alcotest.(check bool) (metric ^ " doctored regresses") true
        (regressed metric (diff d (mutate d ~key ~field (Some (v d))))))
    [
      ( "BENCH_micro.json", "stages:counters", "rewrite/trampolines:trap",
        fun _ -> 99. );
      ( "BENCH_micro.json", "metrics:serve-metrics-c1", "serve.errors",
        fun _ -> 3. );
      ( "BENCH_micro.json", "serve:serve-replay-stream", "response_hit_rate_pct",
        fun _ -> 42. );
      ("BENCH_corpus.json", "corpus:ours/jt", "pass_rate_pct", fun _ -> 90.);
      ( "BENCH_micro.json", "cache:cache-warm-perturbed", "ns_per_run",
        fun d ->
          1.5
          *. value_of d ~key:"cache:cache-warm-identical" ~field:"ns_per_run" );
    ]

(* ------------------------------------------------------------------ *)
(* 5. Failure-path observability                                       *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let trace_file_on_raise () =
  let path = Filename.temp_file "icfg-test-trace" ".json" in
  Sys.remove path;
  (try
     Trace.with_file path (fun () ->
         Trace.span "doomed" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "trace file written despite the raise" true
    (Sys.file_exists path);
  let json = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "trace json valid schema" true
    (contains ~sub:"\"icfg-trace/1\"" json);
  Alcotest.(check bool) "failed span recorded" true
    (contains ~sub:"\"doomed\"" json)

let trace_file_on_success () =
  let path = Filename.temp_file "icfg-test-trace" ".json" in
  let v = Trace.with_file path (fun () -> Trace.add "n" 7; 42) in
  let json = read_file path in
  Sys.remove path;
  Alcotest.(check int) "result passthrough" 42 v;
  Alcotest.(check bool) "counter written" true (contains ~sub:"\"n\": 7" json)

let verify_failure_has_trace () =
  (* An under-approximated bound makes the strong test fail; the report
     must still carry a populated trace (what `icfg verify --trace` saves
     before exiting non-zero). *)
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build graded_spec) in
  let fm =
    Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2)
  in
  let r = Verify.strong_test ~options:(opts Mode.Dir) ~fm bin in
  Alcotest.(check bool) "strong test fails" false r.Verify.ok;
  Alcotest.(check bool) "failing report still has spans" true
    (Trace.rows r.Verify.trace <> []);
  Alcotest.(check bool) "failing report still has counters" true
    (Trace.counters r.Verify.trace <> [])

(* ------------------------------------------------------------------ *)
(* 6. Report serialization                                             *)
(* ------------------------------------------------------------------ *)

let report_json () =
  let bin = first_bench Arch.X86_64 in
  let rw m = Runner.rewrite ~options:(opts m) bin in
  let dir = (rw Mode.Dir).Rewriter.rw_attribution in
  let jt = (rw Mode.Jt).Rewriter.rw_attribution in
  let json = A.to_json ~dir jt in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" sub) true
        (contains ~sub json))
    [
      "\"icfg-report/1\"";
      "\"mode\": \"jt\"";
      "\"histogram\"";
      "\"delta_vs_dir\"";
      Printf.sprintf "\"cfl_blocks\": %d," (A.cfl_total jt);
    ];
  (* The report is valid JSON by the gate's own parser. *)
  (match Bench_diff.parse_json json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e);
  Alcotest.(check bool) "dir report omits the delta" false
    (contains ~sub:"delta_vs_dir" (A.to_json ~dir dir));
  (* The harness experiment renders and includes the monotonicity verdict. *)
  let attr_exp = Icfg_harness.Experiments.attribution () in
  Alcotest.(check bool) "experiment reports monotonicity OK" true
    (contains ~sub:"monotonicity dir -> jt -> func-ptr: OK" attr_exp)

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "attribution tiles stats" `Quick reconciliation;
        Alcotest.test_case "attribution tiles stats (srbi-like)" `Quick
          reconciliation_srbi_like;
        Alcotest.test_case "attribution cache-independent" `Quick
          attribution_cache_independent;
        Alcotest.test_case "attribution mode monotonicity" `Quick mode_monotone;
        Alcotest.test_case "graded causes: bounds" `Quick graded_causes;
        Alcotest.test_case "graded causes: spill" `Quick graded_spill;
        Alcotest.test_case "bench diff: parser" `Quick bench_diff_parser;
        Alcotest.test_case "bench diff: self" `Quick bench_diff_self;
        Alcotest.test_case "bench diff: counters" `Quick bench_diff_counters;
        Alcotest.test_case "bench diff: times" `Quick bench_diff_times;
        Alcotest.test_case "bench diff: rows" `Quick bench_diff_rows;
        Alcotest.test_case "bench diff: added policy" `Quick bench_diff_added;
        Alcotest.test_case "bench diff: cache section" `Quick
          bench_diff_cache_section;
        Alcotest.test_case "bench diff: warm-path gate" `Quick
          bench_diff_warm_path;
        Alcotest.test_case "bench diff: corpus section" `Quick
          bench_diff_corpus_section;
        Alcotest.test_case "bench diff: committed baseline" `Quick
          bench_diff_real_baseline;
        Alcotest.test_case "trace file on raise" `Quick trace_file_on_raise;
        Alcotest.test_case "trace file on success" `Quick trace_file_on_success;
        Alcotest.test_case "verify failure keeps trace" `Quick
          verify_failure_has_trace;
        Alcotest.test_case "report json" `Quick report_json;
        QCheck_alcotest.to_alcotest graded_causes_qcheck;
      ] );
  ]
