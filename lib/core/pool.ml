let recommended_jobs () = Domain.recommended_domain_count ()

exception Incomplete_map of { lane : int; index : int; total : int }

let () =
  Printexc.register_printer (function
    | Incomplete_map { lane; index; total } ->
        Some
          (Printf.sprintf
             "Pool.map: result slot %d/%d left unfilled (claimed by lane %d)"
             index total lane)
    | _ -> None)

(* A pool is a bag of worker domains draining one shared queue of batch
   thunks. Scheduling state for a particular [map] call (the index and
   completion counters) lives in the thunk's closure, so the pool itself is
   reusable across unrelated batches. *)
type pool = {
  q : (unit -> unit) Queue.t;
  m : Mutex.t;
  work_available : Condition.t;
  mutable n_workers : int;
}

let worker pool () =
  let rec loop () =
    Mutex.lock pool.m;
    while Queue.is_empty pool.q do
      Condition.wait pool.work_available pool.m
    done;
    let task = Queue.pop pool.q in
    Mutex.unlock pool.m;
    task ();
    loop ()
  in
  loop ()

(* One shared pool for the whole process, grown on demand to the largest
   lane count ever requested and kept for the process lifetime (idle worker
   domains block in [Condition.wait], which does not hold the runtime lock,
   so they cost nothing). A single pool — rather than one per distinct
   worker count — means a process that maps with jobs 2, then 4, then 8
   ends up with 7 worker domains, not 1+3+7. *)
let the_pool =
  {
    q = Queue.create ();
    m = Mutex.create ();
    work_available = Condition.create ();
    n_workers = 0;
  }

let pool_m = Mutex.create ()

let get_pool workers =
  Mutex.lock pool_m;
  if workers > the_pool.n_workers then begin
    for _ = the_pool.n_workers + 1 to workers do
      ignore (Domain.spawn (worker the_pool))
    done;
    the_pool.n_workers <- workers
  end;
  Mutex.unlock pool_m;
  the_pool

let live_workers () =
  Mutex.lock pool_m;
  let n = the_pool.n_workers in
  Mutex.unlock pool_m;
  n

let map_array ~jobs f arr =
  let n = Array.length arr in
  (* Lanes beyond the hardware's domain recommendation only oversubscribe
     the runtime (and OCaml caps the total domain count), so jobs is an
     upper bound, not a demand. *)
  let lanes = min (min (max 1 jobs) n) (max 1 (recommended_jobs ())) in
  if lanes <= 1 then Array.map f arr
  else begin
    let pool = get_pool (lanes - 1) in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let failure = Atomic.make None in
    let done_m = Mutex.create () in
    let all_done = Condition.create () in
    (* Every lane (workers and the caller) runs the same batch body: steal
       the next input index, fill the matching result slot. Slots are
       written by exactly one lane and read only after the completion
       barrier, so results come back in input order by construction.

       Once any lane records a failure the others stop applying [f]: they
       still drain the remaining indices (the completion barrier counts
       every index exactly once), but each drained index is a counter
       bump, not a unit of wasted work, so a failing batch aborts after
       at most the calls already in flight. *)
    (* Capture the caller's open span so each lane's span tree attaches
       under it even from a worker domain; [trace_ctx] is [None] (and the
       wrappers are pass-through) when no trace is ambient. *)
    let trace_ctx = Trace.fork () in
    (* Which lane claimed each index, for the diagnostic below: a slot
       still [None] after a clean barrier is an impossible state, and when
       the impossible happens the error should name the culprit rather
       than die as a bare [Assert_failure]. *)
    let owners = Array.make n (-1) in
    let body lane () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          owners.(i) <- lane;
          (if Atomic.get failure = None then
             try results.(i) <- Some (f arr.(i))
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          if Atomic.fetch_and_add completed 1 + 1 = n then begin
            Mutex.lock done_m;
            Condition.broadcast all_done;
            Mutex.unlock done_m
          end;
          go ()
        end
      in
      go ()
    in
    Mutex.lock pool.m;
    for k = 1 to lanes - 1 do
      Queue.push
        (fun () -> Trace.lane trace_ctx ("lane-" ^ string_of_int k) (body k))
        pool.q
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.m;
    Trace.lane trace_ctx "lane-0" (body 0);
    Mutex.lock done_m;
    while Atomic.get completed < n do
      Condition.wait all_done done_m
    done;
    Mutex.unlock done_m;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.mapi
      (fun i -> function
        | Some v -> v
        | None ->
            raise (Incomplete_map { lane = owners.(i); index = i; total = n }))
      results
  end

let map ~jobs f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs <= 1 -> List.map f xs
  | _ -> Array.to_list (map_array ~jobs f (Array.of_list xs))

let runner ?(jobs = 1) () =
  {
    Icfg_analysis.Parse.map = (fun f xs -> map ~jobs f xs);
    span = Trace.span;
    count = Trace.add;
  }
