type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* -------------------------------------------------------------------- *)
(* Parser                                                                *)
(* -------------------------------------------------------------------- *)

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char b '\r';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with Failure _ -> fail "bad \\u escape"
              in
              (* Non-ASCII escapes keep a replacement byte; counter/stage
                 names are ASCII so this never loses a key. *)
              Buffer.add_char b
                (if code < 0x80 then Char.chr code else '?');
              go ()
          | Some c ->
              Buffer.add_char b c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* -------------------------------------------------------------------- *)
(* Accessors                                                             *)
(* -------------------------------------------------------------------- *)

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let as_list = function List l -> l | _ -> []
let as_num = function Num f -> Some f | _ -> None
let as_str = function Str s -> Some s | _ -> None

let str_member k j = Option.bind (member k j) as_str
let num_member k j = Option.bind (member k j) as_num

(* -------------------------------------------------------------------- *)
(* Diff                                                                  *)
(* -------------------------------------------------------------------- *)

type severity = Regression | Added | Info

type finding = { f_severity : severity; f_metric : string; f_msg : string }

let schema = "icfg-bench-micro/2"

(* Sub-50µs one-shot spans are dominated by scheduling jitter; a relative
   gate alone flaps on them, so a time regression also needs this much
   absolute growth. *)
let time_noise_floor_ns = 50_000.

(* One row of any section, keyed "section:name". A non-numeric value reads
   as NaN: the field is present but never passes a comparison. *)
type row = {
  key : string;
  times : (string * float) list;
  counters : (string * float) list;
  gates : (string * json) list;
}

let rows doc =
  let obj k r = match member k r with Some (Obj l) -> l | _ -> [] in
  let bag k r =
    List.map
      (fun (f, v) -> (f, Option.value ~default:Float.nan (as_num v)))
      (obj k r)
  in
  List.filter_map
    (fun r ->
      match (str_member "section" r, str_member "name" r) with
      | Some s, Some n ->
          Some
            {
              key = s ^ ":" ^ n;
              times = bag "times" r;
              counters = bag "counters" r;
              gates = obj "gates" r;
            }
      | _ -> None)
    (Option.fold ~none:[] ~some:as_list (member "rows" doc))

let fields r = List.map fst r.times @ List.map fst r.counters

let value r f =
  match List.assoc_opt f r.times with
  | Some v -> Some v
  | None -> List.assoc_opt f r.counters

let show f =
  if Float.is_integer f || Float.abs f >= 1000. then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let diff ?gate old_json new_json =
  match (str_member "schema" old_json, str_member "schema" new_json) with
  | Some a, Some b when a = schema && b = schema ->
      let findings = ref [] in
      let report f_severity f_metric f_msg =
        findings := { f_severity; f_metric; f_msg } :: !findings
      in
      let same_cores =
        match (num_member "cores" old_json, num_member "cores" new_json) with
        | Some a, Some b -> a = b
        | _ -> false
      in
      let time_gate = if same_cores then gate else None in
      if gate <> None && not same_cores then
        report Info "cores" "core counts differ between runs; times not gated";
      let olds = rows old_json and news = rows new_json in
      let find key rows = List.find_opt (fun r -> r.key = key) rows in
      let check_time metric pct ov nv =
        if
          Float.is_finite ov && Float.is_finite nv
          && nv > ov *. (1. +. (pct /. 100.))
          && nv -. ov > time_noise_floor_ns
        then
          report Regression metric
            (Printf.sprintf "time %.0f ns -> %.0f ns (+%.1f%%, gate %.1f%%)" ov
               nv
               (100. *. (nv -. ov) /. Float.max 1. ov)
               pct)
      in
      (* A declared gate, applied to one field. Comparative policies judge
         NEW against OLD; a bound judges NEW alone, optionally as a
         multiple of another field of the NEW run. *)
      let check_gate ~o ~n metric g ov nv =
        let policy =
          match g with
          | Str p -> p
          | _ -> Option.value ~default:"?" (str_member "policy" g)
        in
        let comparative worse =
          match (ov, str_member "if_same" g) with
          | None, _ -> report Regression metric "gated field absent in OLD"
          | Some _, Some f when value o f <> value n f ->
              report Info metric
                (Printf.sprintf "not compared: %s differs between runs" f)
          | Some ov, _ when worse ov nv ->
              report Regression metric
                (Printf.sprintf "%s -> %s (%s)" (show ov) (show nv) policy)
          | Some ov, _ when ov <> nv ->
              report Info metric (Printf.sprintf "%s -> %s" (show ov) (show nv))
          | Some _, _ -> ()
        in
        let bound op holds k =
          let scale =
            match member "of" g with
            | None -> Ok (1., "")
            | Some (List [ Str s; Str name; Str f ]) -> (
                let r = s ^ ":" ^ name in
                match Option.bind (find r news) (fun r -> value r f) with
                | Some v ->
                    Ok (v, Printf.sprintf " x %s:%s = %s" r f (show (k *. v)))
                | None -> Error (Printf.sprintf "%s:%s absent in NEW" r f))
            | Some _ -> Error "malformed \"of\""
          in
          match scale with
          | Error e -> report Regression metric ("bound unresolved: " ^ e)
          | Ok (v, of_) ->
              report
                (if holds nv (k *. v) then Info else Regression)
                metric
                (Printf.sprintf "%s (bound %s %s%s)" (show nv) op (show k) of_)
        in
        match (policy, num_member "max" g, num_member "min" g) with
        | "worse_higher", _, _ -> comparative (fun o n -> n > o)
        | "worse_lower", _, _ -> comparative (fun o n -> n < o)
        | "exact", _, _ -> comparative (fun o n -> n <> o)
        | "bound", Some k, None -> bound "<=" ( <= ) k
        | "bound", None, Some k -> bound ">=" ( >= ) k
        | _ -> report Regression metric ("unknown gate policy " ^ policy)
      in
      let diff_row o n =
        let ofs = fields o in
        (* A gate on a field OLD itself lacks still binds NEW. *)
        let gated_only =
          List.filter (fun f -> not (List.mem f ofs)) (List.map fst o.gates)
        in
        List.iter
          (fun f ->
            let metric = o.key ^ ":" ^ f in
            let timed = List.mem_assoc f o.times in
            let gated = List.assoc_opt f o.gates in
            match (value o f, value n f, gated) with
            | _, None, None when not (timed && time_gate <> None) ->
                report Info metric "absent in NEW"
            | _, None, _ -> report Regression metric "gated field absent in NEW"
            | ov, Some nv, _ -> (
                (match (time_gate, ov) with
                | Some pct, Some ov when timed -> check_time metric pct ov nv
                | _ -> ());
                match (gated, ov) with
                | Some g, _ -> check_gate ~o ~n metric g ov nv
                | None, Some ov when (not timed) && ov <> nv ->
                    report Info metric
                      (Printf.sprintf "%s -> %s" (show ov) (show nv))
                | None, _ -> ()))
          (ofs @ gated_only);
        List.iter
          (fun f ->
            if not (List.mem f ofs) then
              report Added (o.key ^ ":" ^ f) "field added in NEW (not in OLD)")
          (fields n);
        List.iter
          (fun (f, _) ->
            if List.mem f ofs && not (List.mem_assoc f o.gates) then
              report Added (o.key ^ ":" ^ f)
                "gate declared only in NEW; applies once the baseline declares \
                 it")
          n.gates
      in
      List.iter
        (fun o ->
          match find o.key news with
          | Some n -> diff_row o n
          | None -> report Regression o.key "row present in OLD but missing in NEW")
        olds;
      List.iter
        (fun n ->
          if find n.key olds = None then
            report Added n.key "row added in NEW (not in OLD)")
        news;
      Ok (List.rev !findings)
  | _ -> Error ("not " ^ schema ^ " documents")

let diff_strings ?gate old_s new_s =
  match (parse_json old_s, parse_json new_s) with
  | Ok o, Ok nw -> diff ?gate o nw
  | Error e, _ -> Error ("OLD: " ^ e)
  | _, Error e -> Error ("NEW: " ^ e)

let read_file path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Ok s
  with Sys_error e -> Error e

let diff_files ?gate old_path new_path =
  match (read_file old_path, read_file new_path) with
  | Ok o, Ok nw -> diff_strings ?gate o nw
  | Error e, _ | _, Error e -> Error e

let has_regression = List.exists (fun f -> f.f_severity = Regression)

let render findings =
  let b = Buffer.create 1024 in
  let part sev label =
    let fs = List.filter (fun f -> f.f_severity = sev) findings in
    if fs <> [] then begin
      Printf.bprintf b "%s (%d):\n" label (List.length fs);
      List.iter
        (fun f -> Printf.bprintf b "  %-40s %s\n" f.f_metric f.f_msg)
        fs
    end
  in
  part Regression "REGRESSIONS";
  part Added "added";
  part Info "info";
  if findings = [] then Buffer.add_string b "no differences\n";
  Buffer.contents b
