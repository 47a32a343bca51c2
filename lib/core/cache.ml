(* The pinned-layout slot store.

   Store model: one mutex-protected in-memory [Digest.t -> string] table
   (digest of the slot name -> marshalled value). Nothing is written to
   disk, so a slot lives only as long as its store. *)

type stats = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bytes_reused : int;
}

type t = {
  mem : (Digest.t, string) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable bytes_reused : int;
}

let make mem =
  {
    mem;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    bytes_reused = 0;
  }

let create () = make (Hashtbl.create 16)

let clone c = make (Mutex.protect c.lock (fun () -> Hashtbl.copy c.mem))

let stats c =
  Mutex.protect c.lock (fun () ->
      {
        c_hits = c.hits;
        c_misses = c.misses;
        c_stores = c.stores;
        c_bytes_reused = c.bytes_reused;
      })

let find_slot (type a) c raw : a option =
  let key = Digest.string raw in
  Mutex.protect c.lock (fun () ->
      match Hashtbl.find_opt c.mem key with
      | Some payload ->
          c.hits <- c.hits + 1;
          c.bytes_reused <- c.bytes_reused + String.length payload;
          Some (Marshal.from_string payload 0 : a)
      | None ->
          c.misses <- c.misses + 1;
          None)

let store_slot c raw v =
  let key = Digest.string raw in
  let payload = Marshal.to_string v [] in
  Mutex.protect c.lock (fun () ->
      Hashtbl.replace c.mem key payload;
      c.stores <- c.stores + 1)
