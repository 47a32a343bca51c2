(* Content-addressed memoization of per-function pipeline artifacts.

   Store model: one mutex-protected [string -> string] table (final key ->
   marshalled payload), optionally mirrored to [dir]/<key>.entry files.
   Keys digest every input of the cached computation, so invalidation is
   free: changed inputs -> changed key -> miss. The disk format is
   self-validating (magic + key echo + payload length + payload digest);
   anything that fails validation is evicted and recomputed — a corrupt
   store can cost time, never correctness.

   The disk tier is optionally size-bounded: [create ~max_disk_bytes]
   caps the total bytes of .entry files, evicting least-recently-used
   entries through {!Lru} (by an in-process access tick; ties broken by
   key so the victim order is deterministic). Evicted entries keep their
   in-memory copy — LRU eviction limits the store's footprint, not this
   process's working set. *)

let schema_version = 3

type stats = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bytes_reused : int;
  c_evict_corrupt : int;
  c_evict_lru : int;
}

type t = {
  cdir : string option;
  mem : (string, string) Hashtbl.t;
  (* On-disk .entry accounting for the LRU bound (encoded file sizes).
     Slots (.slot files) are deliberately not tracked — they are a
     bounded handful of layout snapshots. *)
  disk : unit Lru.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable bytes_reused : int;
  mutable evict_corrupt : int;
  mutable evict_lru : int;
}

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let entry_ext = ".entry"
let slot_ext = ".slot"

let file_path dir key ext = Filename.concat dir (key ^ ext)

let file_size path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> in_channel_length ic)
  with Sys_error _ -> 0

let create ?dir ?max_disk_bytes () =
  Option.iter mkdir_p dir;
  let disk = Lru.create ?capacity:max_disk_bytes () in
  (* Seed the LRU table from entries already on disk (coldest: anything
     present before this process touched it). *)
  (match dir with
  | None -> ()
  | Some d ->
      let names = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
      List.iter
        (fun n ->
          if Filename.check_suffix n entry_ext then
            Lru.seed disk
              (Filename.chop_suffix n entry_ext)
              ()
              ~size:(file_size (Filename.concat d n)))
        names);
  {
    cdir = dir;
    mem = Hashtbl.create 256;
    disk;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    bytes_reused = 0;
    evict_corrupt = 0;
    evict_lru = 0;
  }

let clone c =
  let mem = Mutex.protect c.lock (fun () -> Hashtbl.copy c.mem) in
  {
    cdir = None;
    mem;
    disk = Lru.create ();
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    bytes_reused = 0;
    evict_corrupt = 0;
    evict_lru = 0;
  }

let stats c =
  Mutex.protect c.lock (fun () ->
      {
        c_hits = c.hits;
        c_misses = c.misses;
        c_stores = c.stores;
        c_bytes_reused = c.bytes_reused;
        c_evict_corrupt = c.evict_corrupt;
        c_evict_lru = c.evict_lru;
      })

let hit_rate s =
  let total = s.c_hits + s.c_misses in
  if total = 0 then 0. else float_of_int s.c_hits /. float_of_int total

let dir c = c.cdir

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let final_key ~stage raw =
  Digest.to_hex
    (Digest.string
       (Icfg_obj.Key.kjoin
          [ "icfg-cache"; string_of_int schema_version; stage; raw ]))

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)
(* ------------------------------------------------------------------ *)

let disk_magic = "icfgcache/1"

let entry_files c =
  match c.cdir with
  | None -> []
  | Some d ->
      let names =
        try Array.to_list (Sys.readdir d) with Sys_error _ -> []
      in
      List.sort String.compare
        (List.filter_map
           (fun n ->
             if Filename.check_suffix n entry_ext then
               Some (Filename.concat d n)
             else None)
           names)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* Entry layout: four '\n'-terminated header lines (magic, key echo,
   payload length, payload MD5 hex) followed by the raw payload. *)
let encode_entry key payload =
  String.concat "\n"
    [
      disk_magic;
      key;
      string_of_int (String.length payload);
      Digest.to_hex (Digest.string payload);
      payload;
    ]

let decode_entry key s =
  let line from =
    match String.index_from_opt s from '\n' with
    | Some i -> Some (String.sub s from (i - from), i + 1)
    | None -> None
  in
  let ( let* ) = Option.bind in
  let* magic, p = line 0 in
  let* k, p = line p in
  let* len_s, p = line p in
  let* dig, p = line p in
  let* len = int_of_string_opt len_s in
  if
    magic = disk_magic && k = key && len >= 0
    && String.length s - p = len
  then
    let payload = String.sub s p len in
    if Digest.to_hex (Digest.string payload) = dig then Some payload
    else None
  else None

(* All disk-accounting helpers below assume [c.lock] is held. *)

let disk_remove c key ext =
  match c.cdir with
  | None -> ()
  | Some d ->
      (try Sys.remove (file_path d key ext) with Sys_error _ -> ());
      if ext = entry_ext then Lru.remove c.disk key

let count_evict c =
  c.evict_corrupt <- c.evict_corrupt + 1;
  if Trace.active () then Trace.incr "cache.evict_corrupt"

(* Look up [key] on disk; corrupt/stale entries are removed and counted.
   A valid .entry hit refreshes its LRU tick. Caller holds [c.lock]. *)
let disk_find c key ext =
  match c.cdir with
  | None -> None
  | Some d -> (
      let path = file_path d key ext in
      if not (Sys.file_exists path) then None
      else
        match read_file path with
        | None -> None
        | Some s -> (
            match decode_entry key s with
            | Some payload ->
                if ext = entry_ext then begin
                  (* A file another writer stored after [create] joins
                     the accounting; a hit refreshes the entry's tick. *)
                  if not (Lru.mem c.disk key) then
                    Lru.seed c.disk key () ~size:(String.length s);
                  ignore (Lru.find c.disk key)
                end;
                Some payload
            | None ->
                disk_remove c key ext;
                count_evict c;
                None))

let evict_lru c key =
  disk_remove c key entry_ext;
  c.evict_lru <- c.evict_lru + 1;
  if Trace.active () then Trace.incr "cache.evict_lru"

(* Best-effort atomic write: a same-directory temp file renamed into
   place, so concurrent readers never observe a torn entry. Failures
   (read-only store, races) silently cost a future recompute. After a
   successful .entry write, the LRU bound is enforced: coldest entries
   lose their disk file (the in-memory copy stays) until the store fits,
   and an entry larger than the whole bound keeps only its in-memory
   copy. Caller holds [c.lock]. *)
let disk_store c key payload ext =
  match c.cdir with
  | None -> ()
  | Some d -> (
      let path = file_path d key ext in
      let tmp = path ^ ".tmp" in
      let encoded = encode_entry key payload in
      let written =
        try
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc encoded);
          Sys.rename tmp path;
          true
        with Sys_error _ ->
          (try Sys.remove tmp with Sys_error _ -> ());
          false
      in
      if written && ext = entry_ext then
        match Lru.add c.disk key () ~size:(String.length encoded) with
        | Some victims -> List.iter (evict_lru c) victims
        | None -> evict_lru c key)

(* ------------------------------------------------------------------ *)
(* Store operations                                                    *)
(* ------------------------------------------------------------------ *)

(* Raw payload lookup: memory first, then disk (promoting to memory).
   No hit/miss accounting — [memo_map] counts only after the payload
   also unmarshals, so a corrupt payload ends up a miss, not a hit. *)
let find c key =
  Mutex.protect c.lock (fun () ->
      match Hashtbl.find_opt c.mem key with
      | Some _ as r -> r
      | None -> (
          match disk_find c key entry_ext with
          | Some payload ->
              Hashtbl.replace c.mem key payload;
              Some payload
          | None -> None))

let store c key payload =
  Mutex.protect c.lock (fun () ->
      Hashtbl.replace c.mem key payload;
      disk_store c key payload entry_ext;
      c.stores <- c.stores + 1)

(* Drop an entry whose payload would not unmarshal (possible only via a
   hand-crafted or cross-version disk store — the digest protects against
   corruption, not against a foreign writer with a matching digest). *)
let evict c key =
  Mutex.protect c.lock (fun () ->
      Hashtbl.remove c.mem key;
      disk_remove c key entry_ext;
      count_evict c)

let count_hit c ~stage n =
  Mutex.protect c.lock (fun () ->
      c.hits <- c.hits + 1;
      c.bytes_reused <- c.bytes_reused + n);
  if Trace.active () then begin
    Trace.incr "cache.hit";
    Trace.incr ("cache.hit:" ^ stage);
    Trace.add "cache.bytes_reused" n
  end

let count_miss c ~stage =
  Mutex.protect c.lock (fun () -> c.misses <- c.misses + 1);
  if Trace.active () then begin
    Trace.incr "cache.miss";
    Trace.incr ("cache.miss:" ^ stage)
  end

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

(* A slot is a small mutable-by-overwrite side value (e.g. the previous
   run's layout snapshot) addressed by what it is {e for} rather than by
   its contents — so a warm run can find "the layout of this binary under
   these options" without knowing what it contains. Slots ride in the
   same in-memory table (so [clone] carries them into warm replays) and
   in .slot files next to the .entry tier; they are invisible to hit/miss
   statistics, [entry_files] and the LRU bound. *)

let slot_key raw = final_key ~stage:"slot" raw

let find_slot (type a) c raw : a option =
  let key = slot_key raw in
  let payload =
    Mutex.protect c.lock (fun () ->
        match Hashtbl.find_opt c.mem key with
        | Some _ as r -> r
        | None -> (
            match disk_find c key slot_ext with
            | Some payload ->
                Hashtbl.replace c.mem key payload;
                Some payload
            | None -> None))
  in
  match payload with
  | None -> None
  | Some payload -> (
      match (Marshal.from_string payload 0 : a) with
      | v -> Some v
      | exception _ ->
          Mutex.protect c.lock (fun () ->
              Hashtbl.remove c.mem key;
              disk_remove c key slot_ext;
              count_evict c);
          None)

let store_slot c raw v =
  let key = slot_key raw in
  let payload = Marshal.to_string v [] in
  Mutex.protect c.lock (fun () ->
      Hashtbl.replace c.mem key payload;
      disk_store c key payload slot_ext)

(* ------------------------------------------------------------------ *)
(* memo_map                                                            *)
(* ------------------------------------------------------------------ *)

let memo_map (type a b) ?cache ~jobs ~stage ~(key : a -> string)
    (f : a -> b) (xs : a list) : b list =
  match cache with
  | None -> Pool.map ~jobs f xs
  | Some c ->
      (* Serial probe phase: keys, lookups and hit/miss accounting happen
         in input order on the calling domain, so counters are identical
         for every [jobs] value. Hits unmarshal a private copy here —
         cached values contain mutable tables that must never be shared
         between two results. *)
      let probed =
        List.map
          (fun x ->
            let k = final_key ~stage (key x) in
            let hit =
              match find c k with
              | None -> None
              | Some payload -> (
                  match (Marshal.from_string payload 0 : b) with
                  | v ->
                      count_hit c ~stage (String.length payload);
                      Some v
                  | exception _ ->
                      evict c k;
                      None)
            in
            if Option.is_none hit then count_miss c ~stage;
            (x, k, hit))
          xs
      in
      let misses =
        List.filter_map
          (fun (x, k, hit) ->
            if Option.is_none hit then Some (x, k) else None)
          probed
      in
      let computed = Pool.map ~jobs (fun (x, _) -> f x) misses in
      (* Serial store phase, again in input order. *)
      let fresh = Hashtbl.create (List.length misses * 2) in
      List.iter2
        (fun (_, k) v ->
          store c k (Marshal.to_string v []);
          Hashtbl.replace fresh k v)
        misses computed;
      List.map
        (fun (_, k, hit) ->
          match hit with Some v -> v | None -> Hashtbl.find fresh k)
        probed

(* ------------------------------------------------------------------ *)
(* The stage runner                                                    *)
(* ------------------------------------------------------------------ *)

let runner ?cache ?(jobs = 1) () =
  let jobs = max 1 jobs in
  {
    Icfg_analysis.Parse.map =
      (fun ~stage ~key f xs -> memo_map ?cache ~jobs ~stage ~key f xs);
    span = Trace.span;
    count = Trace.add;
  }
