(** Barrier-free work-stealing parallel exploration.

    The scalable counterpart of {!Par_explorer}: instead of a
    layer-synchronous BFS with a full barrier per layer, the frontier
    lives in per-worker queues of state batches (each a
    {!Sandtable.Frontier} chunk of marshalled states) routed by
    {!Sandtable.Fingerprint.shard_key} (the only routing function — the
    same bits that pick a {!Shard_set} shard pick the owning worker).
    Idle workers steal whole batches from the tail of busy workers'
    queues; termination is detected by a credit scheme over outstanding
    batches (an atomic counter incremented before a batch becomes visible
    and decremented only after its children are enqueued, so zero is a
    stable quiescent signal). Checkpoints, telemetry samples and progress
    reports fire at periodic {e pulses}: worker 0 pauses the world at
    batch boundaries, where the queued states plus the visited set form a
    consistent snapshot ({!Sandtable.Explorer.frontier_mode} [Unordered]).

    Deduplication is first-arrival-wins, so each distinct state is
    expanded exactly once: [distinct]/[generated] totals at exhaustion
    and violation/deadlock verdicts are identical at every worker count
    and to the strict engines'. Discovery depths are upper bounds on BFS
    depth and schedule-dependent, so [max_depth], depth histograms,
    counterexample depth and [max_depth]-budgeted totals are not
    invariant — use [--strict-bfs] ({!Par_explorer}) when those matter.
    See DESIGN.md "Two engine modes". *)

type worker_stat = Par_explorer.worker_stat = {
  w_expanded : int;
  w_generated : int;
  w_inserted : int;
  w_busy : float;  (** seconds spent expanding batches (idle time excluded) *)
  w_cache_hit_ratio : float option;
      (** share of its arrivals its orbit cache recalled ([None] when the
          run does not canonicalise) *)
}

type result = {
  base : Sandtable.Explorer.result;
  workers : int;
  pulses : int;  (** quiescent pulses fired — the WS analogue of layers *)
  steals : int;  (** batches taken from another worker's queue *)
  steal_failed : int;  (** idle polls that found no batch anywhere *)
  worker_stats : worker_stat array;
  shard_stats : Shard_set.stat array;
}

val check :
  ?workers:int ->
  ?pool:Pool.t ->
  ?pulse_every:float ->
  ?resume:Sandtable.Explorer.snapshot ->
  Sandtable.Spec.t ->
  Sandtable.Scenario.t ->
  Sandtable.Explorer.options ->
  result
(** Explore with work stealing. [pulse_every] (seconds, default 1.0) sets
    the quiescent-pulse period — each pulse fires one {!Sandtable.Probe}
    layer record (so [--checkpoint-every k] saves every [k] pulses, and
    the default telemetry cadence samples every pulse) plus per-worker
    [queue.depth] gauges. [resume] accepts both [Layered] snapshots
    (strict-engine checkpoints: the whole frontier seeds at
    [snap_depth]) and [Unordered] ones (per-state depths recovered from
    the visited set). Early-stop ([max_states] / deadline) totals and
    anything depth-budgeted are schedule-dependent; exhaustive totals are
    not. *)
