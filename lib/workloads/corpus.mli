(** Seeded adversarial corpus: hundreds of spec-derived binaries across
    sizes, languages/ISAs and the shapes that separate binary rewriters in
    practice (the synthetic analogue of the thousands-of-binaries sweeps in
    "A Broad Comparative Evaluation of x86-64 Binary Rewriters").

    The whole corpus is a pure function of one corpus seed: entry specs are
    drawn serially from a single {!Rng} stream, so the same seed yields
    byte-identical programs regardless of how the builds are later fanned
    out, and distinct seeds yield distinct corpora. A fraction of entries
    are {e twins} — exact duplicates of an earlier entry — which the
    daemon's response memo answers without rerunning the pipeline. *)

type shape =
  | Plain  (** suite-like mix of compute/switch/dispatch kernels *)
  | Huge_jt  (** oversized jump tables (32-128 cases) *)
  | Dense_fptr  (** dense function-pointer dispatch graphs *)
  | Starved
      (** ppc64le with a >32 MiB working set: scratch-space starvation,
          trap-trampoline pressure (the 602.gcc failure shape) *)
  | Cpp_exc  (** C++ exceptions (throw/catch through indirect frames) *)
  | Go_vtab
      (** Go runtime with vtab checks: func-ptr rewriting is unsafe *)
  | Data_table  (** writable-table dispatch: genuinely unresolvable *)

val all_shapes : shape array
(** Every shape, in the order the corpus cycles through them. *)

val shape_name : shape -> string
(** Kebab-case name (["huge-jt"], ["go-vtab"], ...). *)

type entry = {
  e_id : int;  (** position in the corpus *)
  e_shape : shape;
  e_arch : Icfg_isa.Arch.t;
  e_pie : bool;
  e_bulk : int;  (** extra zeroed working-set bytes *)
  e_go : bool;  (** built with {!Gen.build_go} *)
  e_rust : bool;  (** salt: Rust metadata flagged post-compile *)
  e_symver : bool;  (** salt: symbol versioning flagged post-compile *)
  e_spec : Gen.spec;
  e_twin_of : int option;
      (** [Some j]: exact duplicate of entry [j] (a byte-identical replay) *)
}

val generate : seed:int -> count:int -> entry list
(** The first [count] entries of the corpus for [seed]. Deterministic;
    shapes cycle so any prefix of at least 7 entries covers every shape.
    Raises [Invalid_argument] on a negative count. *)

val build : entry -> Icfg_obj.Binary.t
(** Compile one entry (deterministic). Twins build byte-identical
    binaries. *)

val digest : Icfg_obj.Binary.t -> string
(** Hex digest of the binary's full marshalled image — the determinism
    probe the corpus property tests compare across [--jobs] values. *)
