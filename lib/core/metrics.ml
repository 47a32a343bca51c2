let now_ns () = Monotonic_clock.now ()

(* Histogram buckets: fixed powers of two. [bucket_index v] is the
   position of [v]'s highest set bit, so the boundaries are a property of
   the integers, not of the machine or the data — snapshots taken
   anywhere bucket identically, which is what lets merged fleet
   histograms and committed baselines compare. *)

let n_buckets = 62

let bucket_index v =
  if v <= 1 then 0
  else begin
    let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
    min (n_buckets - 1) (bits v 0)
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl i

let bucket_hi i =
  if i >= n_buckets - 1 then max_int else (1 lsl (i + 1)) - 1

(* Dense per-histogram storage; snapshots sparsify. *)
type hrec = { mutable hr_count : int; mutable hr_sum : int; hr_counts : int array }

type t = {
  m : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  histos : (string, hrec) Hashtbl.t;
}

let create () =
  {
    m = Mutex.create ();
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 32;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl name r;
      r

let add t name n = locked t (fun () -> let r = cell t.counters name in r := !r + n)
let incr t name = add t name 1
let set_gauge t name v = locked t (fun () -> cell t.gauges name := v)
let add_gauge t name d = locked t (fun () -> let r = cell t.gauges name in r := !r + d)

let observe t name v =
  let v = max 0 v in
  locked t (fun () ->
      let h =
        match Hashtbl.find_opt t.histos name with
        | Some h -> h
        | None ->
            let h =
              { hr_count = 0; hr_sum = 0; hr_counts = Array.make n_buckets 0 }
            in
            Hashtbl.add t.histos name h;
            h
      in
      h.hr_count <- h.hr_count + 1;
      h.hr_sum <- h.hr_sum + v;
      let i = bucket_index v in
      h.hr_counts.(i) <- h.hr_counts.(i) + 1)

(* ---------------- snapshots ---------------- *)

type histo = { h_count : int; h_sum : int; h_buckets : (int * int) list }

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_histos : (string * histo) list;
}

let empty = { s_counters = []; s_gauges = []; s_histos = [] }

let sorted_bindings tbl f =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])

let snapshot t =
  locked t (fun () ->
      {
        s_counters = sorted_bindings t.counters (fun r -> !r);
        s_gauges = sorted_bindings t.gauges (fun r -> !r);
        s_histos =
          sorted_bindings t.histos (fun h ->
              let buckets = ref [] in
              for i = n_buckets - 1 downto 0 do
                if h.hr_counts.(i) > 0 then
                  buckets := (i, h.hr_counts.(i)) :: !buckets
              done;
              { h_count = h.hr_count; h_sum = h.hr_sum; h_buckets = !buckets });
      })

(* Union-sum of two key-sorted assoc lists — the normal form that makes
   [merge] associative and commutative: addition is, and re-sorting after
   every merge keeps the representation canonical. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ka, va) :: ra, (kb, _) :: _ when ka < kb ->
      (ka, va) :: merge_assoc combine ra b
  | (ka, _) :: _, (kb, vb) :: rb when kb < ka ->
      (kb, vb) :: merge_assoc combine a rb
  | (ka, va) :: ra, (_, vb) :: rb -> (ka, combine va vb) :: merge_assoc combine ra rb

let merge_histo a b =
  {
    h_count = a.h_count + b.h_count;
    h_sum = a.h_sum + b.h_sum;
    h_buckets = merge_assoc ( + ) a.h_buckets b.h_buckets;
  }

let merge a b =
  {
    s_counters = merge_assoc ( + ) a.s_counters b.s_counters;
    s_gauges = merge_assoc ( + ) a.s_gauges b.s_gauges;
    s_histos = merge_assoc merge_histo a.s_histos b.s_histos;
  }

let histo_mean h =
  if h.h_count = 0 then 0. else float_of_int h.h_sum /. float_of_int h.h_count

let find_counter s name = List.assoc_opt name s.s_counters
let find_gauge s name = List.assoc_opt name s.s_gauges
let find_histo s name = List.assoc_opt name s.s_histos

(* ---------------- expositions ---------------- *)

let to_json s =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"icfg-metrics/1\",\n  \"counters\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    \"%s\": %d" (Icfg_trace.Stats.json_escape k) v)
    s.s_counters;
  Buffer.add_string b "\n  },\n  \"gauges\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    \"%s\": %d" (Icfg_trace.Stats.json_escape k) v)
    s.s_gauges;
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (k, h) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n    \"%s\": {\"count\": %d, \"sum\": %d, \"buckets\": {"
        (Icfg_trace.Stats.json_escape k) h.h_count h.h_sum;
      List.iteri
        (fun j (idx, n) ->
          if j > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "\"%d\": %d" idx n)
        h.h_buckets;
      Buffer.add_string b "}}")
    s.s_histos;
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let prom_sanitize s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    s

(* name = base[:tag]: the base becomes the prom metric name, the rest
   travels as one opaque label so per-approach/per-outcome series group
   under a single metric family. *)
let prom_name name =
  match String.index_opt name ':' with
  | None -> ("icfg_" ^ prom_sanitize name, "")
  | Some i ->
      let base = String.sub name 0 i in
      let tag = String.sub name (i + 1) (String.length name - i - 1) in
      ("icfg_" ^ prom_sanitize base, tag)

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels tag extra =
  let l = (if tag = "" then [] else [ ("tag", tag) ]) @ extra in
  if l = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) l)
    ^ "}"

let to_prom s =
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 32 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Printf.bprintf b "# TYPE %s %s\n" name kind
    end
  in
  List.iter
    (fun (name, v) ->
      let base, tag = prom_name name in
      type_line base "counter";
      Printf.bprintf b "%s%s %d\n" base (prom_labels tag []) v)
    s.s_counters;
  List.iter
    (fun (name, v) ->
      let base, tag = prom_name name in
      type_line base "gauge";
      Printf.bprintf b "%s%s %d\n" base (prom_labels tag []) v)
    s.s_gauges;
  List.iter
    (fun (name, h) ->
      let base, tag = prom_name name in
      type_line base "histogram";
      let cum = ref 0 in
      List.iter
        (fun (idx, n) ->
          cum := !cum + n;
          Printf.bprintf b "%s_bucket%s %d\n" base
            (prom_labels tag [ ("le", string_of_int (bucket_hi idx)) ])
            !cum)
        h.h_buckets;
      Printf.bprintf b "%s_bucket%s %d\n" base
        (prom_labels tag [ ("le", "+Inf") ])
        h.h_count;
      Printf.bprintf b "%s_sum%s %d\n" base (prom_labels tag []) h.h_sum;
      Printf.bprintf b "%s_count%s %d\n" base (prom_labels tag []) h.h_count)
    s.s_histos;
  Buffer.contents b
