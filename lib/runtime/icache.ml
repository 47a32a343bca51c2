type config = { line_bytes : int; lines : int; miss_cost : int }

type t = {
  cfg : config;
  tags : int array;  (** -1 = invalid *)
  mutable miss_count : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create cfg =
  if not (is_pow2 cfg.line_bytes && is_pow2 cfg.lines) then
    invalid_arg "Icache.create: sizes must be powers of two";
  { cfg; tags = Array.make cfg.lines (-1); miss_count = 0 }

let access t addr =
  let line = addr / t.cfg.line_bytes in
  let idx = line land (t.cfg.lines - 1) in
  if t.tags.(idx) = line then false
  else (
    t.tags.(idx) <- line;
    t.miss_count <- t.miss_count + 1;
    true)

let misses t = t.miss_count

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.miss_count <- 0
