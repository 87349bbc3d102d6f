(** Sampled diagnostics for the run directory's time series.

    Every barrier — a strict-BFS layer or a work-stealing pulse — appends
    one [layer] record to [events.ndjsonl]; {!Run} writes it. On the
    barriers the [--telemetry-every] cadence selects, the record also
    carries the fields {!sample} returns: per-worker states/s and
    expand / barrier-wait / steal-wait split since the previous sample,
    per-worker queue depth and steal counts, run-wide steal counts, spill
    bytes written, visited-table load and bytes per state, GC heap words
    and major collections. Those are wall-clock diagnostics and
    machine-dependent; the layer-aligned counts beside them are not.

    Samples are taken {e at the barrier}, while every worker domain is
    parked — the only point where per-worker collectors can be read
    without races. *)

type t

val create : cadence:Progress.cadence -> t0:float -> workers:int -> t
(** [Every_states k] samples every k-th barrier, [Every_seconds s] the
    first barrier at least [s] seconds after the previous sample, [Never]
    none. *)

val sample :
  t -> layer:int -> collectors:Metrics.collector array -> now:float ->
  (string * Store.Sjson.t) list
(** The diagnostic fields for barrier number [layer], or [[]] when the
    cadence does not select it. Call only from the coordinator at a
    quiescent barrier. *)
