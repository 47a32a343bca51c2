type 'a entry = { value : 'a; size : int; mutable tick : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable total : int;
  mutable clock : int;
}

let create ?(capacity = max_int) () =
  { tbl = Hashtbl.create 64; capacity; total = 0; clock = 0 }

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      Hashtbl.remove t.tbl key;
      t.total <- t.total - e.size
  | None -> ()

let put t key value ~size ~tick =
  remove t key;
  Hashtbl.replace t.tbl key { value; size; tick };
  t.total <- t.total + size

let seed t key value ~size = put t key value ~size ~tick:0

(* Minimal (tick, key) other than [keep]. *)
let victim t ~keep =
  Hashtbl.fold
    (fun key e best ->
      if key = keep then best
      else
        match best with
        | Some (bt, bk) when (bt, bk) <= (e.tick, key) -> best
        | _ -> Some (e.tick, key))
    t.tbl None

let add t key value ~size =
  if size > t.capacity then None
  else begin
    t.clock <- t.clock + 1;
    put t key value ~size ~tick:t.clock;
    let rec shrink acc =
      if t.total <= t.capacity then List.rev acc
      else
        match victim t ~keep:key with
        | Some (_, v) ->
            remove t v;
            shrink (v :: acc)
        | None -> List.rev acc
    in
    Some (shrink [])
  end

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.clock <- t.clock + 1;
      e.tick <- t.clock;
      Some e.value
  | None -> None

let mem t key = Hashtbl.mem t.tbl key
let total t = t.total
let length t = Hashtbl.length t.tbl
let capacity t = t.capacity
