(** The bench regression gate: compare two bench runs (schema
    [icfg-bench-micro/2], written by [bench/main.ml]) and classify every
    difference.

    A document is [{"schema"; "cores"; "rows": [...]}], and every row of
    every section has one shape,
    [{"section"; "name"; "times"; "counters"; "gates"}]: [times] and
    [counters] map field names to numbers, and [gates] maps a field name
    (in either bag) to the policy that field is held to. Rows match
    across runs by ["section:name"], and findings are named
    ["section:name:field"].

    Policy:

    - {b Times} are gated only when [gate] is given {e and} both runs
      report the same core count — wall-clock comparisons across machines
      are noise. A new value above [old * (1 + gate/100)] that also grew
      by more than an absolute 50µs noise floor is a regression (one-shot
      sub-µs spans jitter by integer factors and must not flap the gate).
    - {b Counters} without a gate are informational when they move.
    - {b Gates} are the exceptions, and OLD's declarations are the
      contract NEW is judged by. A gate is a string policy or an object
      [{"policy": ...}] with parameters:
      {ul
      {- ["worse_higher"] / ["worse_lower"]: NEW moving up (down) from
         OLD is a regression; moving the other way is informational. An
         [if_same] parameter names a field that must be equal in both
         rows for the comparison to apply (a corpus pass rate compares
         only sweeps of the same [cells]).}
      {- ["exact"]: any change is a regression.}
      {- ["bound"] with [max] or [min] [k]: NEW's value must stay [<= k]
         ([>= k]), independent of OLD and of [gate]. With
         [of: [section, name, field]] the limit is [k] times that field
         of the NEW run. A passing bound is reported as
         {!severity.Info} with its value.}}
    - A field OLD gates (or times, under [gate] on equal cores) that NEW
      lacks is a regression; an ungated one is informational. A row
      present in OLD but missing in NEW is a regression (lost coverage).
    - A row, field or gate present only in NEW carries the explicit
      {!severity.Added} classification: always reported — a growing
      suite should be visible — and never gating, so landing new rows or
      gates cannot trip the gate against an older baseline. A new gate
      applies once a refreshed baseline declares it. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Hand-rolled recursive-descent JSON parser (no JSON dependency — same
    policy as the writers in [bench/main.ml] and {!Icfg_core.Trace}). *)

type severity = Regression | Added | Info

type finding = { f_severity : severity; f_metric : string; f_msg : string }

val schema : string
(** ["icfg-bench-micro/2"], the only schema {!diff} accepts. *)

val diff : ?gate:float -> json -> json -> (finding list, string) result
(** [diff ?gate old new] compares two parsed bench documents. [gate] is
    the allowed time growth in percent; when absent, times are never
    gated. [Error] on documents of another schema. *)

val diff_strings : ?gate:float -> string -> string -> (finding list, string) result

val diff_files :
  ?gate:float -> string -> string -> (finding list, string) result
(** [diff_files ?gate old_path new_path]. [Error] on unreadable files or
    parse failures. *)

val has_regression : finding list -> bool

val render : finding list -> string
(** Human-readable report, regressions first. *)
