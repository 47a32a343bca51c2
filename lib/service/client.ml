module Binfile = Icfg_obj.Binfile

(* [sent] counts the frame bytes this connection has written. *)
type t = { fd : Unix.file_descr; mutable sent : int }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; sent = 0 }

let close c = try Unix.close c.fd with _ -> ()
let fd c = c.fd
let bytes_sent c = c.sent

let with_connection path f =
  let c = connect path in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

let call c req =
  let p = Protocol.request_to_payload req in
  Protocol.write_frame c.fd p;
  c.sent <- c.sent + Protocol.frame_bytes p;
  match Protocol.read_frame c.fd with
  | None -> Stdlib.Error "server closed the connection"
  | Some p -> Protocol.response_of_payload p
  | exception Protocol.Malformed m -> Stdlib.Error m

let ping c = call c Protocol.Ping
let register_bytes c bin = call c (Protocol.Register { bin })
let register c bin = register_bytes c (Binfile.to_string bin)

(* NeedFull fallback: re-send with the full bytes when we have them
   ([fallback]), which also re-registers the base — the store heals and
   the next Ref/Patch round-trip is incremental again. One retry only:
   a Full payload cannot itself draw NeedFull. *)
let call_payload c make ~fallback payload =
  match call c (make payload) with
  | Ok (Protocol.NeedFull _) when fallback <> None -> (
      match fallback with
      | Some bin -> call c (make (Protocol.Full bin))
      | None -> assert false)
  | r -> r

(* [jobs] is a reserved frame field the daemon ignores; send 0. *)
let rewrite_payload c ~approach ?fallback payload =
  call_payload c
    (fun payload -> Protocol.Rewrite { approach; jobs = 0; payload })
    ~fallback payload

let classify_payload c ~approach ?fallback payload =
  call_payload c
    (fun payload -> Protocol.Classify { approach; jobs = 0; payload })
    ~fallback payload

let rewrite c ~approach bin =
  rewrite_payload c ~approach (Protocol.Full (Binfile.to_string bin))

let classify c ~approach bin =
  classify_payload c ~approach (Protocol.Full (Binfile.to_string bin))

let stats c ?(flight = false) () = call c (Protocol.Stats { flight })
