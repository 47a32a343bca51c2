include Icfg_trace.Trace

let add_vm ~prefix (r : Icfg_runtime.Vm.result) =
  if active () then begin
    add (prefix ^ "/cycles") r.cycles;
    add (prefix ^ "/steps") r.steps;
    add (prefix ^ "/traps") r.trap_hits;
    add (prefix ^ "/ra-translations") r.ra_translations;
    add (prefix ^ "/unwind-steps") r.unwind_steps;
    add (prefix ^ "/icache-misses") r.icache_misses;
    add (prefix ^ "/icache-hits") (r.icache_accesses - r.icache_misses);
    List.iter
      (fun (bucket, cycles) -> add (prefix ^ "/cycles:" ^ bucket) cycles)
      r.cycle_buckets
  end
