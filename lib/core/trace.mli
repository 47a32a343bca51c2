(** {!Icfg_trace.Trace} plus the one adapter that needs the [Vm]. *)

include module type of struct
  include Icfg_trace.Trace
end

val add_vm : prefix:string -> Icfg_runtime.Vm.result -> unit
(** Record a finished VM run's runtime counters under [prefix] (e.g.
    ["vm/rewritten"]): cycles (total and per cost bucket), steps, traps
    delivered, RA translations, icache hits/misses, unwind steps. *)
