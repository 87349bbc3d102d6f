(** One observed run: the glue between the engines' {!Sandtable.Probe}
    hooks and the on-disk artefacts.

    [create] builds per-worker metric collectors, an optional Chrome
    trace-event file ([--trace-out]) and an optional run-directory event
    log ([events.ndjsonl]); [probe] hands back the probe to thread through
    [Explorer.options], [Par_simulate], [Store.Checkpoint.hook], …;
    [finish] merges the collectors, writes [metrics.json] into the run
    directory, appends the final "done" event and closes both files,
    returning the {!summary} the CLI folds into the manifest.

    Span → artefact routing: every span arrives completed, with the
    endpoints its caller measured, and feeds the merged phase timers; only
    coarse phases (expand, barrier and steal waits, walks, replay,
    checkpoint, spill I/O, shrink) are forwarded to the trace file —
    per-state spans (fingerprint, symmetry-normalize, invariant, walk) and
    [fault.compile] would bloat it or say nothing there, so they aggregate
    silently. *)

type t

val metrics_file : string
(** ["metrics.json"], relative to the run directory. *)

val create :
  ?workers:int -> ?trace_out:string -> ?dir:string ->
  ?telemetry:Progress.cadence -> unit -> t
(** [workers] sizes the collector array (default 1; out-of-range worker
    indices fall back to collector 0). [dir] is created if missing. With a
    run dir, every barrier (strict-BFS layer or work-stealing pulse)
    appends one [layer] record to [events.ndjsonl] — layer number, depth,
    distinct, generated, frontier, fault-plan phase and [elapsed_s] — and
    the barriers [telemetry] selects (default: every one) also carry the
    {!Telemetry} diagnostics; an exploration {!Profile} is written as
    [profile.json] by [finish]. Creating a run resets the
    {!Sandtable.Envgen} fault-plan phase watermark. *)

val probe : t -> Sandtable.Probe.t option
(** Always [Some] — typed as an option to slot directly into
    [Explorer.options.probe] and [?probe] parameters. *)

val dir : t -> string option

val event : t -> (string * Store.Sjson.t) list -> unit
(** Append one record to [events.ndjsonl] (no-op without a run dir). The
    CLI uses this for checkpoint saves and violations. *)

val mark : t -> string -> unit
(** Drop an instant marker into the trace (no-op without [trace_out]). *)

type summary = {
  s_throughput : float;  (** generated states (or events) per second *)
  s_peak_frontier : int;  (** largest BFS layer observed *)
  s_barrier_idle_pct : float;
      (** barrier-wait time as % of (expand+walks) + barrier-wait *)
  s_layers : int;  (** layer records observed *)
  s_metrics : Metrics.summary;
      (** merged counters/gauges/timers *)
  s_profile : Profile.summary;  (** exploration-shape profile *)
}

val finish :
  t -> outcome:string -> ?distinct:int -> ?generated:int -> ?max_depth:int ->
  duration:float -> unit -> summary
(** Idempotent artefact finalization: merge the collectors, write
    [metrics.json] and [profile.json], append the "done" event, close
    the trace and event files. [metrics.json] carries a top-level
    [peak_rss_mb] (the process's VmHWM) where [/proc/self/status] is
    readable. *)
