(* cold-corpus: one op is a cold, uncached, one-shot rewrite of one
   corpus binary in one ours/* mode, from container bytes to container
   bytes: Binfile.of_string, Runner.parse, Rewriter.rewrite,
   Binfile.to_string.

   The pool is the first [pool_count] entries of the corpus for a fixed
   corpus seed, each paired with every mode except func-ptr on go-vtab
   (the failure the paper predicts). The run seed orders the ops. Keeping
   the pool fixed keeps the deterministic metrics (Vm overhead, size
   growth, coverage) identical across seeds. The three 35 MiB starved
   entries make 15% of the pool, so p50 sits among analysis-bound small
   images and p95 among whole-image handling of the starved ones. *)

module Corpus = Icfg_workloads.Corpus
module Binfile = Icfg_obj.Binfile
module Binary = Icfg_obj.Binary
module Runner = Icfg_harness.Runner
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode
module Trace = Icfg_core.Trace
module Vm = Icfg_runtime.Vm

type item = {
  id : int;
  kind : string;  (** ["starved"] or ["small"] *)
  bytes : string;  (** the input container *)
  orig : Runner.run;  (** the original binary's Vm run: the reference *)
  orig_size : int;
  mode : Mode.t;
}

type env = {
  items : item array;
  det : (int, Report.det) Hashtbl.t;  (** per item, from its first passing op *)
  vm : Util.acc;  (** every reference Vm run the checks made *)
}

let corpus_seed = 7
let pool_count = 21

let setup ?(count = pool_count) () =
  let entries = Corpus.generate ~seed:corpus_seed ~count in
  let items =
    List.concat_map
      (fun (e : Corpus.entry) ->
        let bin = Corpus.build e in
        let bytes = Binfile.to_string bin in
        let orig = Runner.run_original bin in
        let kind = if e.e_shape = Corpus.Starved then "starved" else "small" in
        List.filter_map
          (fun mode ->
            if mode = Mode.Func_ptr && e.e_shape = Corpus.Go_vtab then None
            else Some { id = 0; kind; bytes; orig; orig_size = Binary.loaded_size bin; mode })
          Mode.all)
      entries
  in
  {
    items = Array.of_list (List.mapi (fun id it -> { it with id }) items);
    det = Hashtbl.create 64;
    vm = Util.acc ();
  }

(* One op. The rewritten binary's Vm run is the correctness check and
   runs off the clock; [tamper] lets tests doctor its output. *)
let op env ~traced ~tamper (ph : Util.phase) it =
  Util.settle ();
  let tr = Trace.create () in
  let under f = if traced then Trace.with_current tr f else f () in
  let timed =
    try
      Some
        (under @@ fun () ->
         let t0 = Util.now_ns () in
         let bin = Binfile.of_string it.bytes in
         let t1 = Util.now_ns () in
         let p = Runner.parse ~jobs:1 bin in
         let rw =
           Rewriter.rewrite ~options:{ Rewriter.default_options with mode = it.mode } p
         in
         let t2 = Util.now_ns () in
         let out = Binfile.to_string rw.Rewriter.rw_binary in
         let t3 = Util.now_ns () in
         (p, rw, out, t0, t1, t2, t3))
    with _ -> None
  in
  match timed with
  | None -> Util.record ph ~kind:it.kind ~ns:0 ~ok:false
  | Some (p, rw, out, t0, t1, t2, t3) ->
      let ns = t3 - t0 in
      ph.clock_ns <- ph.clock_ns + ns;
      let run =
        try Some (Util.vm_call env.vm (fun () -> Runner.run_rewritten rw))
        with _ -> None
      in
      let ok =
        match Option.map tamper run with
        | Some (r : Runner.run) -> r.r_outcome = Vm.Halted && r.r_output = it.orig.r_output
        | None -> false
      in
      Util.record ph ~kind:it.kind ~ns ~ok;
      if ok && not (Hashtbl.mem env.det it.id) then
        Hashtbl.replace env.det it.id
          (Report.det_of ~orig:it.orig ~rewritten:(Option.get run)
             ~orig_size:it.orig_size
             ~new_size:(Binary.loaded_size rw.Rewriter.rw_binary)
             ~coverage:(Icfg_analysis.Parse.coverage p));
      if traced then begin
        let a = ph.layers in
        Util.add a "op.ns" (float_of_int ns);
        Util.add a "binfile.decode_ns" (float_of_int (t1 - t0));
        Util.add a "binfile.encode_ns" (float_of_int (t3 - t2));
        Util.add a "binfile.bytes" (float_of_int (String.length it.bytes + String.length out));
        Util.add_stage_rows a tr;
        Util.add_rewrite_counts a rw
      end

(* One block: every item once, in seeded order. *)
let order env rng = Util.shuffle rng env.items

let run ?(tamper = Fun.id) env ~rng ~seconds ~min_ops ~traced =
  let ph = Util.phase () in
  Util.run_blocks ph ~seconds ~min_ops (fun () ->
      Array.iter (op env ~traced ~tamper ph) (order env rng));
  ph

(* In item order, so the float reductions are identical on every run. *)
let det env =
  Hashtbl.fold (fun id d acc -> (id, d) :: acc) env.det [] |> List.sort compare |> List.map snd

let layers env ~untraced:_ ~(traced : Util.phase) =
  let a = traced.layers and ops = traced.ops in
  let per k = if ops > 0 then Util.get a k /. float_of_int ops else 0. in
  let covered =
    Util.get a "binfile.decode_ns" +. Util.get a "binfile.encode_ns"
    +. Util.get a "parse.ms" +. Util.get a "rewriter.ms"
  in
  Util.stage_layer a ~ops
  @ Util.per_op a ~ops Util.count_layers
  @ Util.vm_layer env.vm
  @ [
      ("binfile.decode_ms", per "binfile.decode_ns" /. 1e6);
      ("binfile.encode_ms", per "binfile.encode_ns" /. 1e6);
      ("binfile.mb_per_op", per "binfile.bytes" /. 1048576.);
      ("unattributed_pct", Util.uncovered_pct ~total:(Util.get a "op.ns") covered);
    ]
