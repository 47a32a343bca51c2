(* [No_sharing] flattens the value, so two structurally equal values
   marshal identically regardless of how they were built. Keyed values are
   acyclic plain data, so flattening always terminates. *)
let dval v = Marshal.to_string v [ Marshal.No_sharing ]
