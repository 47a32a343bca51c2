(* Corpus + matrix battery (ISSUE 6).

   Contracts under test:

   1. [Corpus.generate] is a pure function of (seed, count): identical
      calls agree, shorter counts are prefixes of longer ones, the first
      seven entries cover every adversarial shape, and distinct seeds
      produce distinct corpora.

   2. Corpus binaries are deterministic artifacts: building an entry
      yields byte-identical binaries whichever domain builds it, and a
      twin entry builds byte-identical to its source (a replay the
      daemon's response memo answers).

   3. [Matrix.run] rows tile: [verified + diverged + refused + crashed =
      cells], and refusal histograms sum to [refused]. *)

module Corpus = Icfg_workloads.Corpus
module Matrix = Icfg_harness.Matrix

(* ------------------------------------------------------------------ *)
(* 1. Corpus generation determinism                                    *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic_and_prefix () =
  let a = Corpus.generate ~seed:7 ~count:40 in
  let b = Corpus.generate ~seed:7 ~count:40 in
  Alcotest.(check bool) "same seed, same corpus" true (a = b);
  let prefix = Corpus.generate ~seed:7 ~count:20 in
  Alcotest.(check bool) "shorter count is a prefix" true
    (prefix = List.filteri (fun i _ -> i < 20) a)

let test_shape_coverage () =
  List.iter
    (fun seed ->
      let es = Corpus.generate ~seed ~count:7 in
      let shapes =
        List.sort_uniq compare
          (List.map (fun e -> Corpus.shape_name e.Corpus.e_shape) es)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: first 7 entries cover all shapes" seed)
        (Array.length Corpus.all_shapes)
        (List.length shapes))
    [ 1; 7; 9999 ]

let distinct_seeds =
  QCheck2.Test.make ~count:20 ~name:"corpus: distinct seeds, distinct corpora"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let specs s =
        List.map (fun e -> e.Corpus.e_spec) (Corpus.generate ~seed:s ~count:10)
      in
      specs seed <> specs (seed + 1))

(* ------------------------------------------------------------------ *)
(* 2. Built binaries are deterministic artifacts                       *)
(* ------------------------------------------------------------------ *)

(* Three domains build contiguous thirds of the entries concurrently;
   every digest matches the serial build's. *)
let digest_domain_independent =
  QCheck2.Test.make ~count:4
    ~name:"corpus: build digests independent of the building domain"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let entries = Corpus.generate ~seed ~count:8 in
      let digest e = Corpus.digest (Corpus.build e) in
      let third k = List.filteri (fun i _ -> i * 3 / 8 = k) entries in
      let domains =
        List.map
          (fun k -> Domain.spawn (fun () -> List.map digest (third k)))
          [ 0; 1; 2 ]
      in
      List.concat_map Domain.join domains = List.map digest entries)

let test_twins_build_identical () =
  let entries = Corpus.generate ~seed:7 ~count:30 in
  let arr = Array.of_list entries in
  let twins =
    List.filter (fun e -> e.Corpus.e_twin_of <> None) entries
  in
  Alcotest.(check bool) "a 30-entry corpus contains twins" true (twins <> []);
  List.iter
    (fun e ->
      let src = arr.(Option.get e.Corpus.e_twin_of) in
      Alcotest.(check string)
        (Printf.sprintf "entry %d builds identical to its twin %d"
           e.Corpus.e_id src.Corpus.e_id)
        (Corpus.digest (Corpus.build src))
        (Corpus.digest (Corpus.build e)))
    twins

(* ------------------------------------------------------------------ *)
(* 3. Matrix rows                                                     *)
(* ------------------------------------------------------------------ *)

let test_matrix_smoke () =
  let m = Matrix.run ~seed:11 ~count:8 () in
  Alcotest.(check int) "seven roster rows" 7 (List.length m.Matrix.m_rows);
  List.iter
    (fun (r : Matrix.row) ->
      let name fmt = Printf.sprintf "%s: %s" r.Matrix.row_approach fmt in
      Alcotest.(check int) (name "cells = corpus size") 8 r.Matrix.row_cells;
      Alcotest.(check int)
        (name "classes tile the cells")
        8
        (r.Matrix.row_verified + r.Matrix.row_diverged + r.Matrix.row_refused
       + r.Matrix.row_crashed);
      Alcotest.(check int)
        (name "refusal histogram sums to refused")
        r.Matrix.row_refused
        (List.fold_left (fun n (_, c) -> n + c) 0 r.Matrix.row_refusals);
      Alcotest.(check bool)
        (name "pass rate in range")
        true
        (Matrix.pass_rate_pct r >= 0. && Matrix.pass_rate_pct r <= 100.))
    m.Matrix.m_rows

(* Why the matrix evaluates cells uncached: a twin builds identical to
   its source, name included, so the source's layout slot can only
   reproduce the layout an uncached rewrite solves. For every roster
   approach, the twin's cell classifies the same through a cache its
   source's cell warmed as it does uncached. *)
let test_twin_cells_cache_independent () =
  let entries = Corpus.generate ~seed:7 ~count:10 in
  let twin = List.nth entries 9 in
  let src =
    match twin.Corpus.e_twin_of with
    | Some j -> List.nth entries j
    | None -> Alcotest.fail "corpus entry 9 is expected to be a twin"
  in
  let src_bin = Corpus.build src and twin_bin = Corpus.build twin in
  let orig = Icfg_harness.Runner.run_original twin_bin in
  List.iter
    (fun (approach, _) ->
      let cache = Icfg_core.Cache.create () in
      ignore (Matrix.eval_cell ~orig ~approach ~cache src_bin);
      let _, warm = Matrix.eval_cell ~orig ~approach ~cache twin_bin in
      let _, cold = Matrix.eval_cell ~orig ~approach twin_bin in
      Alcotest.(check string) approach (Matrix.cls_to_string cold)
        (Matrix.cls_to_string warm))
    Icfg_baselines.Baseline.approaches

(* [Matrix.percentile]: nearest-rank on the finite values only. NaN and
   infinities must be dropped, not allowed to poison the sort order, and
   an empty (or all-non-finite) sample reads as 0. *)
let test_percentile () =
  let check name want got = Alcotest.(check (float 1e-9)) name want got in
  check "empty" 0. (Matrix.percentile 0.5 []);
  check "singleton" 42. (Matrix.percentile 0.95 [ 42. ]);
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  check "median of 1..5" 3. (Matrix.percentile 0.5 xs);
  check "p0 is the min" 1. (Matrix.percentile 0. xs);
  check "p100 is the max" 5. (Matrix.percentile 1. xs);
  (* Nearest rank: p95 over five values rounds to the last index. *)
  check "p95 of 1..5" 5. (Matrix.percentile 0.95 xs);
  let poisoned = [ Float.nan; 5.; Float.infinity; 1.; 4.; Float.nan; 2.; 3. ] in
  check "nan/inf dropped" 3. (Matrix.percentile 0.5 poisoned);
  check "all non-finite" 0. (Matrix.percentile 0.5 [ Float.nan; Float.nan ])

let suite =
  [
    ( "corpus",
      [
        Alcotest.test_case "generate deterministic + prefix" `Quick
          test_generate_deterministic_and_prefix;
        Alcotest.test_case "shape coverage" `Quick test_shape_coverage;
        QCheck_alcotest.to_alcotest distinct_seeds;
        QCheck_alcotest.to_alcotest digest_domain_independent;
        Alcotest.test_case "twins build identical" `Quick
          test_twins_build_identical;
        Alcotest.test_case "matrix smoke" `Slow test_matrix_smoke;
        Alcotest.test_case "matrix: twin cells cache-independent" `Quick
          test_twin_cells_cache_independent;
        Alcotest.test_case "percentile" `Quick test_percentile;
      ] );
  ]
