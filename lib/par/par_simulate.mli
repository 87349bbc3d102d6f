(** Parallel random-walk simulation (TLC's multi-worker simulation mode).

    The parallel map of [Sandtable.Simulate.walks]: walk [i] draws from
    [Sandtable.Simulate.rng_for ~seed i] on whichever domain runs it and is
    written back by index, so for a fixed root seed the returned walk list
    (not just its multiset) equals [Simulate.walks] at every worker count. *)

type worker_stat = {
  ws_walks : int;
  ws_events : int;  (** total events over this worker's walks *)
  ws_busy : float;  (** seconds *)
}

val walks :
  ?workers:int -> ?probe:Sandtable.Probe.t ->
  Sandtable.Spec.t -> Sandtable.Scenario.t ->
  Sandtable.Simulate.options -> seed:int -> count:int ->
  Sandtable.Simulate.walk list
(** [workers] defaults to [Domain.recommended_domain_count ()]. With
    [probe], each worker runs its batch inside a ["walks"] span (with a
    trailing ["barrier-wait"] span) and per-walk [sim.*] counters land in
    that worker's collector. *)

val aggregate :
  ?workers:int -> ?probe:Sandtable.Probe.t ->
  ?progress_every:int -> ?progress:(int -> unit) ->
  Sandtable.Spec.t -> Sandtable.Scenario.t ->
  Sandtable.Simulate.options -> seed:int -> count:int ->
  Sandtable.Simulate.aggregate * worker_stat array
(** [Simulate.aggregate] of the walks {!walks} lists, with per-worker
    stats, holding no walk list: each worker adds its walks to a running
    aggregate as they finish, so memory stays flat in [count], and the
    per-worker aggregates merge in walk order, so the result (its
    [first_violation] included) is the same at every worker count.
    [progress] is fired every [progress_every] completed walks with the
    completed-walk count — from whichever worker domain crossed the
    threshold, so the callback must be domain-safe (printing a line is). *)

val walks_per_sec : worker_stat -> float
val pp_worker_stats : Format.formatter -> worker_stat array -> unit
