module Trace = Icfg_core.Trace

type summary = {
  fs_id : int;
  fs_approach : string;
  fs_outcome : string;
  fs_ns : int;
  fs_errored : bool;
}

type t = {
  m : Mutex.t;
  ring_bound : int;
  slow_bound : int;
  err_bound : int;
  mutable next_id : int;
  mutable recorded : int;
  mutable ring : summary list; (* newest first, length <= ring_bound *)
  mutable ring_len : int;
  (* Retained traces stay [Trace.t]s: only a dump renders them. *)
  mutable slowest : (summary * Trace.t option) list; (* ns-descending *)
  mutable errors : (summary * Trace.t option) list; (* newest first *)
}

let create ?(ring = 64) ?(slowest = 8) ?(errors = 16) () =
  {
    m = Mutex.create ();
    ring_bound = max 1 ring;
    slow_bound = max 1 slowest;
    err_bound = max 1 errors;
    next_id = 1;
    recorded = 0;
    ring = [];
    ring_len = 0;
    slowest = [];
    errors = [];
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Insert into the ns-descending slowest list, keeping the bound. Ties
   keep the earlier request (stable insert after equal elements). *)
let insert_slow bound entry l =
  let ns (s, _) = s.fs_ns in
  let rec ins = function
    | [] -> [ entry ]
    | x :: rest when ns x >= ns entry -> x :: ins rest
    | rest -> entry :: rest
  in
  take bound (ins l)

let record t ~approach ~outcome ~ns ~errored trace =
  Mutex.lock t.m;
  let s =
    {
      fs_id = t.next_id;
      fs_approach = approach;
      fs_outcome = outcome;
      fs_ns = ns;
      fs_errored = errored;
    }
  in
  t.next_id <- t.next_id + 1;
  t.recorded <- t.recorded + 1;
  t.ring <- s :: t.ring;
  t.ring_len <- t.ring_len + 1;
  if t.ring_len > t.ring_bound then begin
    t.ring <- take t.ring_bound t.ring;
    t.ring_len <- t.ring_bound
  end;
  t.slowest <- insert_slow t.slow_bound (s, trace) t.slowest;
  if errored then t.errors <- take t.err_bound ((s, trace) :: t.errors);
  Mutex.unlock t.m

type snapshot = {
  fl_recorded : int;
  fl_recent : summary list;
  fl_slowest : (summary * string) list;
  fl_errors : (summary * string) list;
}

(* Rendered outside the lock: a dump must not stall recording executors.
   A memo replay ran no pipeline, so it has no trace to show. *)
let snapshot t =
  let recorded, recent, slowest, errors =
    Mutex.protect t.m (fun () -> (t.recorded, t.ring, t.slowest, t.errors))
  in
  let render =
    List.map (fun (s, tr) ->
        (s, match tr with Some tr -> Trace.to_json tr | None -> "{}"))
  in
  {
    fl_recorded = recorded;
    fl_recent = recent;
    fl_slowest = render slowest;
    fl_errors = render errors;
  }

let summary_json s =
  Printf.sprintf
    "{\"id\": %d, \"approach\": \"%s\", \"outcome\": \"%s\", \"ns\": %d, \
     \"errored\": %b}"
    s.fs_id
    (Icfg_trace.Stats.json_escape s.fs_approach)
    (Icfg_trace.Stats.json_escape s.fs_outcome)
    s.fs_ns
    s.fs_errored

let to_json snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"icfg-flight/1\",\n";
  Printf.bprintf b "  \"recorded\": %d,\n" snap.fl_recorded;
  Buffer.add_string b "  \"recent\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      Buffer.add_string b (summary_json s))
    snap.fl_recent;
  Buffer.add_string b "\n  ],\n";
  let traced label entries =
    Printf.bprintf b "  \"%s\": [" label;
    List.iteri
      (fun i (s, trace) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b "\n    {\"summary\": ";
        Buffer.add_string b (summary_json s);
        (* The retained trace is already an icfg-trace/1 document; embed
           it as an object (trim the trailing newline) so the flight dump
           stays one parseable tree. *)
        Buffer.add_string b ", \"trace\": ";
        Buffer.add_string b (String.trim trace);
        Buffer.add_string b "}")
      entries;
    Buffer.add_string b "\n  ]"
  in
  traced "slowest" snap.fl_slowest;
  Buffer.add_string b ",\n";
  traced "errors" snap.fl_errors;
  Buffer.add_string b "\n}\n";
  Buffer.contents b
