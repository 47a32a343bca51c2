(* [No_sharing] flattens the value, so two structurally equal values
   marshal identically regardless of how they were built (a cache
   round-trip must not change downstream keys). Keyed pipeline values are
   acyclic plain data, so flattening always terminates. *)
let dval v = Marshal.to_string v [ Marshal.No_sharing ]

let kjoin parts =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Buffer.contents b
