(* edit-loop: one op is a warm re-rewrite, [Runner.rewrite ~cache], of
   one edited spec-suite binary against a clone of that binary's warmed
   cache. The clone is taken off the clock, so every op starts from the
   same warm state.

   Edit kinds cycle through identical, one function's bytes
   ([perturb_function]), one data byte ([perturb_data]) and one symbol
   name ([perturb_symbol]); the four share the cache and pinned-layout
   code, so a gain on one kind that costs another shows. The pool is
   fixed: the two 40 MiB ppc64le images plus five small binaries across
   the three ISAs. A block runs every small edit twice and every large
   edit once, so large-image edits are 1/6 of the ops: p95 lands on them
   and p50 on small edits. *)

module Spec = Icfg_workloads.Spec_suite
module Arch = Icfg_isa.Arch
module Binary = Icfg_obj.Binary
module Runner = Icfg_harness.Runner
module Rewriter = Icfg_core.Rewriter
module Cache = Icfg_core.Cache
module Trace = Icfg_core.Trace
module Vm = Icfg_runtime.Vm

type edit = {
  id : int;
  kind : string;  (** identical | function | data | symbol *)
  size : string;  (** large | small *)
  warm : Cache.t;  (** the base binary's warmed cache; cloned per op *)
  ebin : Binary.t;  (** the edited binary *)
  ref_digest : string;  (** [image_digest] of the uncached rewrite *)
  orig_size : int;
  coverage : float;
}

type env = {
  edits : edit array;
  block : edit array;  (** one block of ops, before shuffling *)
  verdicts : (int, bool) Hashtbl.t;  (** per edit: did the Vm check pass *)
  misses : (int, int) Hashtbl.t;  (** per edit: cache misses of a warm op *)
  det : (int, Report.det) Hashtbl.t;
  vm : Util.acc;
}

let large = [ (Arch.Ppc64le, "602.gcc_s"); (Arch.Ppc64le, "621.wrf_s") ]

let small =
  [
    (Arch.X86_64, "600.perlbench_s");
    (Arch.Aarch64, "620.omnetpp_s");
    (Arch.Ppc64le, "657.xz_s");
    (Arch.X86_64, "603.bwaves_s");
    (Arch.Aarch64, "602.gcc_s");
  ]

let kinds = [ "identical"; "function"; "data"; "symbol" ]

(* A digest of every field of a binary image: each section's bytes
   digested in place, plus the rest of the record. As strict as
   digesting the container bytes, without serializing 40 MiB first. *)
let image_digest (b : Binary.t) =
  let module S = Icfg_obj.Section in
  let skeleton =
    { b with Binary.sections = List.map (fun s -> { s with S.data = Bytes.empty }) b.Binary.sections }
  in
  Digest.string
    (String.concat ""
       (Digest.string (Marshal.to_string skeleton [ Marshal.No_sharing ])
       :: List.map (fun s -> Digest.bytes s.S.data) b.Binary.sections))

let compile (arch, name) =
  let bench =
    List.find (fun (b : Spec.bench) -> b.bench_name = name) (Spec.benchmarks arch)
  in
  fst (Spec.compile arch bench)

(* The edits of one base binary, each with its uncached reference. *)
let edits_of ~size bin =
  let warm = Cache.create () in
  ignore (Runner.rewrite ~jobs:1 ~cache:warm bin);
  let p = Runner.parse ~jobs:1 bin in
  let edited = function
    | "identical" -> Some bin
    | "function" -> Option.map fst (Runner.perturb_function p)
    | "data" -> Option.map fst (Runner.perturb_data p)
    | _ -> Option.map fst (Runner.perturb_symbol p)
  in
  List.filter_map
    (fun kind ->
      Option.map
        (fun ebin ->
          let ep = Runner.parse ~jobs:1 ebin in
          {
            id = 0;
            kind;
            size;
            warm;
            ebin;
            ref_digest = image_digest (Rewriter.rewrite ep).Rewriter.rw_binary;
            orig_size = Binary.loaded_size ebin;
            coverage = Icfg_analysis.Parse.coverage ep;
          })
        (edited kind))
    kinds

let setup ?(large = large) ?(small = small) () =
  let of_pool size pool = List.concat_map (fun b -> edits_of ~size (compile b)) pool in
  let edits =
    List.mapi (fun id e -> { e with id }) (of_pool "large" large @ of_pool "small" small)
  in
  let small_edits = List.filter (fun e -> e.size = "small") edits in
  {
    edits = Array.of_list edits;
    block = Array.of_list (edits @ small_edits);
    verdicts = Hashtbl.create 32;
    misses = Hashtbl.create 32;
    det = Hashtbl.create 32;
    vm = Util.acc ();
  }

(* Once per distinct edit, off the clock: the rewritten binary must
   behave like the edited original under the Vm. *)
let vm_check env e rw cache =
  let run f = try Some (Util.vm_call env.vm f) with _ -> None in
  let ok =
    match (run (fun () -> Runner.run_original e.ebin), run (fun () -> Runner.run_rewritten rw)) with
    | Some orig, Some r ->
        let ok = r.r_outcome = Vm.Halted && r.r_output = orig.r_output in
        if ok then
          Hashtbl.replace env.det e.id
            (Report.det_of ~orig ~rewritten:r ~orig_size:e.orig_size
               ~new_size:(Binary.loaded_size rw.Rewriter.rw_binary)
               ~coverage:e.coverage);
        ok
    | _ -> false
  in
  Hashtbl.replace env.verdicts e.id ok;
  Hashtbl.replace env.misses e.id (Cache.stats cache).Cache.c_misses;
  ok

(* One op. [tamper] lets tests doctor the cached output. *)
let op env ~traced ~tamper (ph : Util.phase) e =
  let cache = Cache.clone e.warm in
  Util.settle ();
  let tr = Trace.create () in
  let under f = if traced then Trace.with_current tr f else f () in
  let kind = e.kind ^ "/" ^ e.size in
  match
    under (fun () ->
        let t0 = Util.now_ns () in
        let rw = Runner.rewrite ~jobs:1 ~cache e.ebin in
        (rw, Util.now_ns () - t0))
  with
  | exception _ -> Util.record ph ~kind ~ns:0 ~ok:false
  | rw, ns ->
      ph.clock_ns <- ph.clock_ns + ns;
      let same =
        try image_digest (tamper rw.Rewriter.rw_binary) = e.ref_digest with _ -> false
      in
      let behaves =
        match Hashtbl.find_opt env.verdicts e.id with
        | Some v -> v
        | None -> vm_check env e rw cache
      in
      Util.record ph ~kind ~ns ~ok:(same && behaves);
      if traced then begin
        let a = ph.layers and s = Cache.stats cache in
        Util.add a "op.ns" (float_of_int ns);
        Util.add_stage_rows a tr;
        Util.add_rewrite_counts a rw;
        Util.add a "cache.hits" (float_of_int s.Cache.c_hits);
        Util.add a "cache.misses" (float_of_int s.Cache.c_misses);
        Util.add a "cache.bytes_reused" (float_of_int s.Cache.c_bytes_reused)
      end

(* One block in seeded order. *)
let order env rng = Util.shuffle rng env.block

let run ?(tamper = Fun.id) env ~rng ~seconds ~min_ops ~traced =
  let ph = Util.phase () in
  Util.run_blocks ph ~seconds ~min_ops (fun () ->
      Array.iter (op env ~traced ~tamper ph) (order env rng));
  ph

(* In item order, so the float reductions are identical on every run. *)
let det env =
  Hashtbl.fold (fun id d acc -> (id, d) :: acc) env.det [] |> List.sort compare |> List.map snd

let layers env ~(untraced : Util.phase) ~(traced : Util.phase) =
  let a = traced.layers and ops = traced.ops in
  let lookups = Util.get a "cache.hits" +. Util.get a "cache.misses" in
  let kind_misses kind =
    Array.fold_left
      (fun acc e ->
        if e.kind = kind then acc + Option.value ~default:0 (Hashtbl.find_opt env.misses e.id)
        else acc)
      0 env.edits
  in
  let kind_p50 kind =
    let prefix = kind ^ "/" in
    let n = String.length prefix in
    (Stat.summarize
       (List.filter_map
          (fun (k, v) ->
            if String.length k > n && String.sub k 0 n = prefix then Some v else None)
          untraced.samples))
      .Stat.p50
  in
  Util.stage_layer a ~ops
  @ Util.per_op a ~ops Util.count_layers
  @ Util.vm_layer env.vm
  @ [
      ("cache.hit_pct", if lookups > 0. then 100. *. Util.get a "cache.hits" /. lookups else 0.);
      ( "cache.bytes_reused_mb",
        if ops > 0 then Util.get a "cache.bytes_reused" /. float_of_int ops /. 1048576. else 0. );
      ( "unattributed_pct",
        Util.uncovered_pct ~total:(Util.get a "op.ns")
          (Util.get a "parse.ms" +. Util.get a "rewriter.ms") );
    ]
  @ List.concat_map
      (fun k ->
        [
          ("cache.misses." ^ k, float_of_int (kind_misses k));
          ("edit." ^ k ^ "_p50_ms", kind_p50 k);
        ])
      kinds
