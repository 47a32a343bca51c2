module Baseline = Icfg_baselines.Baseline
module Corpus = Icfg_workloads.Corpus
module Matrix = Icfg_harness.Matrix

(* Corpus sweep through a live daemon: the deployment-shaped twin of
   [Matrix.run]. Every (binary, approach) cell travels the wire as a
   [Classify] request and is evaluated in-daemon by the same
   [Matrix.eval_cell] the in-process sweep uses, so the per-approach
   classification rows must match [Matrix.run] exactly (times aside) —
   [check] pins that, and CI gates it.

   Client model: [clients] threads, each with its own connection,
   pulling (entry, approach) work items off one shared index in corpus-
   major order. Classifications are interleaving-independent: a cell's
   result depends only on its binary and approach; only wall times
   vary. *)

type payload_mode = Full_upload | By_ref

type result = {
  sw_seed : int;
  sw_count : int;
  sw_clients : int;
  sw_rows : Matrix.row list; (* roster order; cells in corpus order *)
  sw_requests : int;
  sw_overloaded : int;
  sw_errors : int;
  sw_wall_ns : float;
  sw_rps : float;
  sw_metrics : Icfg_core.Metrics.snapshot;
  sw_wire_req_bytes : int;
  sw_full_req_bytes : int;
  sw_register_bytes : int;
  sw_needfull : int;
}

let socket_counter = Atomic.make 0

let fresh_socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "icfg-serve-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add socket_counter 1))

let run ?(seed = 7) ?(count = 48) ?(clients = 4) ?(payload_mode = Full_upload)
    () =
  let clients = max 1 clients in
  let entries = Corpus.generate ~seed ~count in
  (* Build once, serially: the daemon rewrites binaries, it does not
     generate them, and building inside client threads would race the
     wall clock the throughput number measures. *)
  let bins = Array.of_list (List.map Corpus.build entries) in
  (* Serialize once too: both payload modes need the container bytes
     (the wire body in Full_upload, the registration upload + NeedFull
     fallback in By_ref), and serializing inside client threads would
     also race the clock. *)
  let bin_strs = Array.map Icfg_obj.Binfile.to_string bins in
  let digests = Array.map Store.digest bin_strs in
  let approaches = Array.of_list (List.map fst Baseline.approaches) in
  let n_app = Array.length approaches in
  let n_items = Array.length bins * n_app in
  let cells = Array.make n_items (0., Matrix.Crashed "unvisited") in
  let errors = Atomic.make 0 in
  let wire = Atomic.make 0 in
  (* Connection threads block per in-flight request, so [clients] bounds
     daemon concurrency; a bound of [clients] can therefore never refuse
     — sweeps must be refusal-free or the equality gate would compare
     incomplete rows. *)
  let path = fresh_socket_path () in
  let srv =
    Server.start ~path ~bound:(max 64 clients) ~workers:(min 4 clients) ()
  in
  (* By_ref: one setup connection uploads every binary once, before the
     clock starts — the steady-state stream then ships 32-byte handles.
     Registration cost is reported separately ([sw_register_bytes]). *)
  let register_bytes =
    match payload_mode with
    | Full_upload -> 0
    | By_ref ->
        Client.with_connection path (fun c ->
            Array.iter
              (fun s ->
                match Client.register_bytes c s with
                | Ok (Protocol.Registered _) -> ()
                | _ -> Atomic.incr errors)
              bin_strs;
            Client.bytes_sent c)
  in
  let next = Atomic.make 0 in
  let t0 = Icfg_core.Metrics.now_ns () in
  let client_body () =
    Client.with_connection path @@ fun c ->
    let rec pull () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n_items then begin
        let ei = i / n_app in
        let approach = approaches.(i mod n_app) in
        (* An evicted or unseen base answers NeedFull; [~fallback]
           re-sends the full bytes, which re-registers them. *)
        let payload =
          match payload_mode with
          | Full_upload -> Protocol.Full bin_strs.(ei)
          | By_ref -> Protocol.Ref digests.(ei)
        in
        (match
           Client.classify_payload c ~approach ~fallback:bin_strs.(ei) payload
         with
        | Ok (Protocol.Classified { cls; ns; _ }) -> cells.(i) <- (ns, cls)
        | Ok (Protocol.Overloaded) ->
            Atomic.incr errors;
            cells.(i) <- (0., Matrix.Crashed "overloaded")
        | Ok (Protocol.Error { message = m; _ }) | Stdlib.Error m ->
            Atomic.incr errors;
            cells.(i) <- (0., Matrix.Crashed ("transport: " ^ m))
        | Ok _ ->
            Atomic.incr errors;
            cells.(i) <- (0., Matrix.Crashed "unexpected response"));
        pull ()
      end
    in
    pull ();
    ignore (Atomic.fetch_and_add wire (Client.bytes_sent c))
  in
  let threads =
    List.init clients (fun _ -> Thread.create client_body ())
  in
  List.iter Thread.join threads;
  let wall_ns = Int64.to_float (Int64.sub (Icfg_core.Metrics.now_ns ()) t0) in
  (* Snapshot before stop: same merged view a live [Stats] frame gets. *)
  let msnap = Server.snapshot srv in
  Server.stop srv;
  let counter k =
    Option.value ~default:0 (Icfg_core.Metrics.find_counter msnap k)
  in
  let rows =
    List.mapi
      (fun ai approach ->
        let cells_of =
          List.init (Array.length bins) (fun ei -> cells.((ei * n_app) + ai))
        in
        Matrix.row_of ~approach cells_of)
      (Array.to_list approaches)
  in
  (* What the stream would have shipped as all-[Full] uploads, against
     what it did ship: the per-request wire saving the serve-ref bench
     row reports. *)
  let full_req_bytes = ref 0 in
  for i = 0 to n_items - 1 do
    let req =
      Protocol.Classify
        {
          approach = approaches.(i mod n_app);
          jobs = 0;
          payload = Protocol.Full bin_strs.(i / n_app);
        }
    in
    full_req_bytes :=
      !full_req_bytes + Protocol.frame_bytes (Protocol.request_to_payload req)
  done;
  {
    sw_seed = seed;
    sw_count = count;
    sw_clients = clients;
    sw_rows = rows;
    sw_requests = counter "serve.requests";
    sw_overloaded = counter "serve.overloaded";
    sw_errors = Atomic.get errors;
    sw_wall_ns = wall_ns;
    sw_rps =
      (if wall_ns > 0. then float_of_int n_items /. (wall_ns /. 1e9) else 0.);
    sw_metrics = msnap;
    sw_wire_req_bytes = Atomic.get wire;
    sw_full_req_bytes = !full_req_bytes;
    sw_register_bytes = register_bytes;
    sw_needfull = counter "serve.needfull";
  }

(* Strip what legitimately varies (wall times) and keep what must not
   (classification counts and refusal histograms, per approach). *)
let strip_row (r : Matrix.row) =
  { r with Matrix.row_p50_ns = 0.; row_p95_ns = 0. }

let row_to_string (r : Matrix.row) =
  Printf.sprintf "%-16s cells=%d verified=%d diverged=%d refused=%d crashed=%d%s"
    r.Matrix.row_approach r.Matrix.row_cells r.Matrix.row_verified
    r.Matrix.row_diverged r.Matrix.row_refused r.Matrix.row_crashed
    (match r.Matrix.row_refusals with
    | [] -> ""
    | l ->
        " refusals="
        ^ String.concat ","
            (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) l))

let check ?(seed = 7) ?(count = 48) ?(clients = 4) () =
  let daemon = run ~seed ~count ~clients () in
  let inproc = Matrix.run ~seed ~count () in
  let d_rows = List.map strip_row daemon.sw_rows in
  let m_rows = List.map strip_row inproc.Matrix.m_rows in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "serve-check: seed %d, %d binaries, %d clients — %d requests, %d \
     overloaded, %d transport errors, %.1f req/s\n"
    seed count clients daemon.sw_requests daemon.sw_overloaded
    daemon.sw_errors daemon.sw_rps;
  let ok = ref (daemon.sw_errors = 0 && daemon.sw_overloaded = 0) in
  if not !ok then
    Buffer.add_string b "  FAIL: sweep saw transport errors or refusals\n";
  List.iter2
    (fun (d : Matrix.row) (m : Matrix.row) ->
      if d = m then
        Printf.bprintf b "  ok    %s\n" (row_to_string d)
      else begin
        ok := false;
        Printf.bprintf b "  FAIL  daemon     %s\n" (row_to_string d);
        Printf.bprintf b "        in-process %s\n" (row_to_string m)
      end)
    d_rows m_rows;
  if !ok then Buffer.add_string b "  daemon == in-process: PASS\n";
  (!ok, Buffer.contents b, daemon)
