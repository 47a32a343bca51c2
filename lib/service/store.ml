(* Bounded in-memory byte store with deterministic LRU eviction — the
   daemon's binary store and its whole-response memo are both instances.

   Every access stamps the entry with a monotonically increasing tick,
   and when an insert would push the store past [max_bytes] the victim
   is the entry with the smallest (tick, key) — so the victim order is a
   deterministic function of the access history, never of hash order.

   A value larger than the whole store is refused ([add] returns
   [false]) rather than evicting everything for nothing: the caller
   turns that into a typed wire refusal. All operations are
   mutex-protected; the store is shared by every connection thread. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_stores : int;
  st_evictions : int;
  st_rejected : int;  (* values over the whole-store capacity *)
  st_bytes : int;  (* current footprint (values only) *)
  st_entries : int;
}

type entry = { value : string; mutable tick : int }

type t = {
  tbl : (string, entry) Hashtbl.t;
  capacity : int;
  lock : Mutex.t;
  mutable bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable rejected : int;
}

let create ?(max_bytes = 1 lsl 30) () =
  {
    tbl = Hashtbl.create 64;
    capacity = max 1 max_bytes;
    lock = Mutex.create ();
    bytes = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    rejected = 0;
  }

let digest s = Digest.to_hex (Digest.string s)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      Hashtbl.remove t.tbl key;
      t.bytes <- t.bytes - String.length e.value
  | None -> ()

(* The least recently used entry other than [keep]: minimal (tick, key). *)
let victim t ~keep =
  Hashtbl.fold
    (fun key e best ->
      if key = keep then best
      else
        match best with
        | Some (bt, bk) when (bt, bk) <= (e.tick, key) -> best
        | _ -> Some (e.tick, key))
    t.tbl None

let add t ~key value =
  Mutex.protect t.lock @@ fun () ->
  if String.length value > t.capacity then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    remove t key;
    Hashtbl.replace t.tbl key { value; tick = tick t };
    t.bytes <- t.bytes + String.length value;
    let rec shrink () =
      if t.bytes > t.capacity then
        match victim t ~keep:key with
        | Some (_, v) ->
            remove t v;
            t.evictions <- t.evictions + 1;
            shrink ()
        | None -> ()
    in
    shrink ();
    t.stores <- t.stores + 1;
    true
  end

let find t key =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.tick <- tick t;
      t.hits <- t.hits + 1;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key = Mutex.protect t.lock @@ fun () -> Hashtbl.mem t.tbl key

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    st_hits = t.hits;
    st_misses = t.misses;
    st_stores = t.stores;
    st_evictions = t.evictions;
    st_rejected = t.rejected;
    st_bytes = t.bytes;
    st_entries = Hashtbl.length t.tbl;
  }

let max_bytes t = t.capacity
