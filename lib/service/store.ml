(* Bounded in-memory byte store with deterministic LRU eviction — the
   daemon's binary store and its whole-response memo are both instances.

   Eviction is [Icfg_core.Lru]'s, shared with the cache's disk tier: every
   access stamps the entry with a monotonically increasing tick, and when
   an insert would push the store past [max_bytes] the victim is the entry
   with the smallest tick, ties broken by key — so the victim order is a
   deterministic function of the access history, never of hash order.

   A value larger than the whole store is refused ([add] returns
   [false]) rather than evicting everything for nothing: the caller
   turns that into a typed wire refusal. All operations are
   mutex-protected; the store is shared by every connection thread. *)

module Lru = Icfg_core.Lru

type stats = {
  st_hits : int;
  st_misses : int;
  st_stores : int;
  st_evictions : int;
  st_rejected : int;  (* values over the whole-store capacity *)
  st_bytes : int;  (* current footprint (values only) *)
  st_entries : int;
}

type t = {
  lru : string Lru.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable rejected : int;
}

let create ?(max_bytes = 1 lsl 30) () =
  {
    lru = Lru.create ~capacity:(max 1 max_bytes) ();
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    rejected = 0;
  }

let digest s = Digest.to_hex (Digest.string s)

let add t ~key value =
  Mutex.protect t.lock @@ fun () ->
  match Lru.add t.lru key value ~size:(String.length value) with
  | None ->
      t.rejected <- t.rejected + 1;
      false
  | Some victims ->
      t.evictions <- t.evictions + List.length victims;
      t.stores <- t.stores + 1;
      true

let find t key =
  Mutex.protect t.lock @@ fun () ->
  match Lru.find t.lru key with
  | Some _ as v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key =
  Mutex.protect t.lock @@ fun () -> Lru.mem t.lru key

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    st_hits = t.hits;
    st_misses = t.misses;
    st_stores = t.stores;
    st_evictions = t.evictions;
    st_rejected = t.rejected;
    st_bytes = Lru.total t.lru;
    st_entries = Lru.length t.lru;
  }

let max_bytes t = Lru.capacity t.lru
