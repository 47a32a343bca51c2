module Metrics = Icfg_core.Metrics

(* Bounded request scheduler: a FIFO of thunks drained by N dedicated
   executor *domains*.

   Domains, not sys-threads, on purpose: the per-request trace isolation
   contract (Trace.with_current is per-domain) only holds if two requests
   never share a domain's ambient slot. Threads of one domain share DLS;
   executor domains do not. Connection I/O threads never record traces,
   so they may share the accept domain freely.

   The bound counts *queued* jobs only. A submit that finds the queue at
   its bound returns None immediately — the caller turns that into a
   typed Overloaded response; nothing blocks, nothing is dropped
   silently. [pause]/[resume] gate dequeueing (not submission), which
   gives tests a deterministic way to fill the queue and lets a server
   drain gracefully.

   Telemetry (observation-only, optional): with [?metrics] the scheduler
   keeps the [sched.queue_depth] and [sched.in_flight] gauges current at
   every transition, counts executed jobs in [sched.jobs], and observes
   each job's submit→dequeue wait in the [sched.queue_wait] histogram —
   the saturation signals an Overloaded response should be correlated
   with. *)

(* [run] receives a [retire] thunk and must call it after computing its
   result but *before* publishing it: once a caller can observe the
   response, the telemetry gauges must already show the job gone — a
   scrape racing right behind the last response of a stream reads
   in-flight 0, not a transient 1. [retire] is idempotent; the worker
   calls it again in a [finally] as a backstop. *)
type job = { run : retire:(unit -> unit) -> unit; enq_ns : int64 }

type t = {
  m : Mutex.t;
  wake : Condition.t; (* queue became non-empty / unpaused / stopping *)
  queue : job Queue.t;
  bound : int;
  metrics : Metrics.t option;
  mutable paused : bool;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

type 'a ticket = {
  tm : Mutex.t;
  tc : Condition.t;
  mutable result : ('a, exn) result option;
}

let gauge t name v =
  match t.metrics with Some m -> Metrics.set_gauge m name v | None -> ()

(* A delta, not a level: two executors finishing at once cannot leave a
   stale [sched.in_flight] behind. *)
let in_flight t d =
  match t.metrics with
  | Some m -> Metrics.add_gauge m "sched.in_flight" d
  | None -> ()

let worker_loop t =
  let rec next () =
    Mutex.lock t.m;
    let rec wait () =
      if (not t.stopping) && (t.paused || Queue.is_empty t.queue) then begin
        Condition.wait t.wake t.m;
        wait ()
      end
    in
    wait ();
    (* On shutdown the queue is drained first: every accepted job holds a
       ticket somebody may be awaiting, so dropping it would hang them. *)
    if Queue.is_empty t.queue then begin
      Mutex.unlock t.m;
      ()
    end
    else begin
      let j = Queue.pop t.queue in
      gauge t "sched.queue_depth" (Queue.length t.queue);
      Mutex.unlock t.m;
      in_flight t 1;
      (match t.metrics with
      | Some m ->
          Metrics.incr m "sched.jobs";
          Metrics.observe m "sched.queue_wait"
            (Int64.to_int (Int64.sub (Metrics.now_ns ()) j.enq_ns))
      | None -> ());
      let retired = ref false in
      let retire () =
        if not !retired then begin
          retired := true;
          in_flight t (-1)
        end
      in
      Fun.protect ~finally:retire (fun () -> j.run ~retire);
      next ()
    end
  in
  next ()

let create ?(bound = 64) ?(workers = 2) ?metrics () =
  let t =
    {
      m = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      bound = max 1 bound;
      metrics;
      paused = false;
      stopping = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t f =
  let tk = { tm = Mutex.create (); tc = Condition.create (); result = None } in
  let job ~retire =
    let r = try Ok (f ()) with e -> Error e in
    retire ();
    Mutex.lock tk.tm;
    tk.result <- Some r;
    Condition.broadcast tk.tc;
    Mutex.unlock tk.tm
  in
  Mutex.lock t.m;
  if t.stopping || Queue.length t.queue >= t.bound then begin
    Mutex.unlock t.m;
    None
  end
  else begin
    Queue.push { run = job; enq_ns = Metrics.now_ns () } t.queue;
    gauge t "sched.queue_depth" (Queue.length t.queue);
    Condition.signal t.wake;
    Mutex.unlock t.m;
    Some tk
  end

let await tk =
  Mutex.lock tk.tm;
  let rec wait () =
    match tk.result with
    | None ->
        Condition.wait tk.tc tk.tm;
        wait ()
    | Some r -> r
  in
  let r = wait () in
  Mutex.unlock tk.tm;
  match r with Ok v -> v | Error e -> raise e

let pending t =
  Mutex.lock t.m;
  let n = Queue.length t.queue in
  Mutex.unlock t.m;
  n

let pause t =
  Mutex.lock t.m;
  t.paused <- true;
  Mutex.unlock t.m

let resume t =
  Mutex.lock t.m;
  t.paused <- false;
  Condition.broadcast t.wake;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  t.paused <- false;
  Condition.broadcast t.wake;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.m;
  (* Join so short-lived servers (every test) release their domains:
     the runtime caps live domains, and these executors are per-server,
     not a process-wide singleton. *)
  List.iter Domain.join ws
