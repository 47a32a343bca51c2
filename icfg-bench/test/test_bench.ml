(* Tests for the benchmark's own code: seeded op lists, failure
   accounting against doctored outputs, and the percentile reduction. *)

open Icfg_bench

let rng seed = Random.State.make [| seed |]

(* ---- op lists ---------------------------------------------------- *)

let cold = lazy (Cold_corpus.setup ~count:3 ())
let edit = lazy (Edit_loop.setup ~large:[] ~small:[ (Icfg_isa.Arch.X86_64, "605.mcf_s") ] ())
let serve = lazy (Serve_mixed.setup ~n_uploads:2 ~n_dups:1 ())

let same_and_different name list =
  Alcotest.(check bool) (name ^ ": same seed, same ops") true (list 5 = list 5);
  Alcotest.(check bool) (name ^ ": other seed, other order") false (list 5 = list 6)

let test_op_lists () =
  let cold = Lazy.force cold and edit = Lazy.force edit and serve = Lazy.force serve in
  same_and_different "cold-corpus" (fun s ->
      Array.map (fun (it : Cold_corpus.item) -> it.id) (Cold_corpus.order cold (rng s)));
  same_and_different "edit-loop" (fun s ->
      Array.map (fun (e : Edit_loop.edit) -> e.id) (Edit_loop.order edit (rng s)));
  same_and_different "serve-mixed" (fun s ->
      let r = rng s in
      List.map
        (fun (dup, (q : Serve_mixed.req)) -> (dup, q.kind, q.key))
        (Serve_mixed.script serve r 0 @ Serve_mixed.script serve r 1))

(* ---- failures are counted ---------------------------------------- *)

let failed run = (run ~rng:(rng 1) ~seconds:0. ~min_ops:0 ~traced:false).Util.failed

let check_counts name ~clean ~doctored =
  Alcotest.(check int) (name ^ ": clean outputs pass") 0 clean;
  Alcotest.(check bool) (name ^ ": doctored output fails") true (doctored > 0)

let flip s =
  String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s

let test_doctored_vm () =
  let env = Lazy.force cold in
  check_counts "cold-corpus"
    ~clean:(failed (Cold_corpus.run env))
    ~doctored:
      (failed
         (Cold_corpus.run env ~tamper:(fun (r : Icfg_harness.Runner.run) ->
              { r with r_output = 1 :: r.r_output })))

let test_doctored_cache () =
  let env = Lazy.force edit in
  check_counts "edit-loop"
    ~clean:(failed (Edit_loop.run env))
    ~doctored:
      (failed
         (Edit_loop.run env ~tamper:(fun (b : Icfg_obj.Binary.t) ->
              let module S = Icfg_obj.Section in
              {
                b with
                sections =
                  List.map
                    (fun s -> { s with S.data = Bytes.of_string (flip (Bytes.to_string s.S.data)) })
                    b.sections;
              })))

let test_doctored_response () =
  let module P = Icfg_service.Protocol in
  let env = Lazy.force serve in
  check_counts "serve-mixed"
    ~clean:(failed (Serve_mixed.run env))
    ~doctored:
      (failed
         (Serve_mixed.run env ~tamper:(function
           | P.Rewritten r -> P.Rewritten { r with bin = flip r.bin }
           | resp -> resp)))

(* ---- nearest rank ------------------------------------------------ *)

let test_nearest_rank () =
  let pct xs q = Stat.nearest_rank (Stat.sorted xs) q in
  let f = Alcotest.(check (float 0.)) in
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  f "p50 of 1..10" 5. (pct ten 50);
  f "p95 of 1..10" 10. (pct ten 95);
  f "p10 of 1..10" 1. (pct ten 10);
  f "unsorted" 2. (pct [ 3.; 1.; 2. ] 50);
  f "single" 7. (pct [ 7. ] 95);
  f "nan dropped" 2. (pct [ nan; 3.; 1.; 2. ] 50);
  f "failed op ranks last" infinity (pct [ 1.; infinity; 2.; 3. ] 95);
  f "failed op below p50" 2. (pct [ 1.; infinity; 2.; 3. ] 50);
  Alcotest.(check bool) "empty" true (Float.is_nan (pct [] 50));
  Alcotest.(check int) "rank 95 of 20 is exact" 19 (Stat.rank ~n:20 95);
  Alcotest.(check int) "samples for p95" 200 Stat.min_samples_for_p95;
  let s n = Stat.summarize (List.init n float_of_int) in
  Alcotest.(check bool) "no p95 below 10 beyond" true ((s 199).Stat.p95 = None);
  Alcotest.(check (option (float 0.))) "p95 of 0..199" (Some 189.) (s 200).Stat.p95

let () =
  Alcotest.run "icfg-bench"
    [
      ("op lists", [ Alcotest.test_case "seeded" `Quick test_op_lists ]);
      ( "failures",
        [
          Alcotest.test_case "doctored Vm output" `Quick test_doctored_vm;
          Alcotest.test_case "doctored cached output" `Quick test_doctored_cache;
          Alcotest.test_case "doctored response byte" `Quick test_doctored_response;
        ] );
      ("stat", [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank ]);
    ]
