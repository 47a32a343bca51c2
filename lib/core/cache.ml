(* The pinned-layout slot store.

   Store model: one mutex-protected [string -> string] table (slot key ->
   marshalled value), optionally mirrored to [dir]/<key>.slot files. The
   file format is self-validating (magic + key echo + payload length +
   payload digest); a file that fails validation, or a payload that does
   not unmarshal, is evicted and reads as absent. *)

(* Part of every slot key, bumped whenever the marshalled shape of a slot
   value changes: [Marshal] is untyped, so a slot written with an older
   layout record must read as absent. *)
let schema_version = 3

type stats = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bytes_reused : int;
  c_evict_corrupt : int;
}

type t = {
  cdir : string option;
  mem : (string, string) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable bytes_reused : int;
  mutable evict_corrupt : int;
}

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let make cdir mem =
  {
    cdir;
    mem;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    bytes_reused = 0;
    evict_corrupt = 0;
  }

let create ?dir () =
  Option.iter mkdir_p dir;
  make dir (Hashtbl.create 16)

let clone c = make None (Mutex.protect c.lock (fun () -> Hashtbl.copy c.mem))

let stats c =
  Mutex.protect c.lock (fun () ->
      {
        c_hits = c.hits;
        c_misses = c.misses;
        c_stores = c.stores;
        c_bytes_reused = c.bytes_reused;
        c_evict_corrupt = c.evict_corrupt;
      })

(* ------------------------------------------------------------------ *)
(* Slot files                                                          *)
(* ------------------------------------------------------------------ *)

let disk_magic = "icfgcache/1"

let slot_path dir key = Filename.concat dir (key ^ ".slot")

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* File layout: four '\n'-terminated header lines (magic, key echo,
   payload length, payload MD5 hex) followed by the raw payload. *)
let encode_file key payload =
  String.concat "\n"
    [
      disk_magic;
      key;
      string_of_int (String.length payload);
      Digest.to_hex (Digest.string payload);
      payload;
    ]

let decode_file key s =
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

(* The helpers below assume [c.lock] is held. *)

let evict c key =
  Hashtbl.remove c.mem key;
  Option.iter
    (fun d -> try Sys.remove (slot_path d key) with Sys_error _ -> ())
    c.cdir;
  c.evict_corrupt <- c.evict_corrupt + 1;
  if Trace.active () then Trace.incr "cache.evict_corrupt"

(* Memory first, then disk (promoting to memory); an invalid file is
   evicted. *)
let find_payload c key =
  match Hashtbl.find_opt c.mem key with
  | Some _ as r -> r
  | None -> (
      match Option.bind c.cdir (fun d -> read_file (slot_path d key)) with
      | None -> None
      | Some s -> (
          match decode_file key s with
          | Some payload ->
              Hashtbl.replace c.mem key payload;
              Some payload
          | None ->
              evict c key;
              None))

(* Best-effort atomic write: a same-directory temp file renamed into
   place, so concurrent readers never observe a torn slot. Failures
   (read-only store, races) silently cost a future re-layout. *)
let write_file c key payload =
  Option.iter
    (fun d ->
      let path = slot_path d key in
      let tmp = path ^ ".tmp" in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (encode_file key payload));
        Sys.rename tmp path
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))
    c.cdir

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

let slot_key raw =
  Digest.to_hex
    (Digest.string
       (Icfg_obj.Key.dval ("icfg-slot", schema_version, (raw : string))))

let find_slot (type a) c raw : a option =
  let key = slot_key raw in
  Mutex.protect c.lock (fun () ->
      let found =
        match find_payload c key with
        | None -> None
        | Some payload -> (
            match (Marshal.from_string payload 0 : a) with
            | v ->
                c.bytes_reused <- c.bytes_reused + String.length payload;
                Some v
            | exception _ ->
                evict c key;
                None)
      in
      if Option.is_some found then c.hits <- c.hits + 1
      else c.misses <- c.misses + 1;
      found)

let store_slot c raw v =
  let key = slot_key raw in
  let payload = Marshal.to_string v [] in
  Mutex.protect c.lock (fun () ->
      Hashtbl.replace c.mem key payload;
      write_file c key payload;
      c.stores <- c.stores + 1)
