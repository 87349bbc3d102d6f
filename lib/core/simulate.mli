(** Random-walk simulation (TLC simulation mode).

    Used for (1) conformance checking — walks generate traces replayed at the
    implementation level (§3.2); (2) constraint ranking data collection
    (Algorithm 1); (3) the specification-side of the speedup comparison
    (§5.3). Walks are seedable and deterministic. *)

type walk = {
  events : Trace.t;
  depth : int;
  coverage : Coverage.t;  (** branches hit along the walk *)
  violation : (string * int) option;
      (** invariant name and the 1-based event index at which it first broke *)
  observations : Tla.Value.t list;
      (** observation after each event (same length as [events]) *)
}

type options = {
  max_depth : int;
  record_observations : bool;
      (** disable to avoid paying observation cost on pure exploration *)
  stop_on_violation : bool;
}

val default : options

val walk : ?probe:Probe.t -> Spec.t -> Scenario.t -> options ->
  Random.State.t -> walk
(** One random walk from a uniformly chosen initial state, choosing
    uniformly among enabled transitions of constraint-satisfying states.
    With [probe], the walk runs inside a ["walk"] span and bumps the
    [sim.walks] / [sim.events] counters. *)

val walks :
  ?probe:Probe.t -> Spec.t -> Scenario.t -> options -> seed:int ->
  count:int -> walk list

type aggregate = {
  runs : int;
  total_events : int;
  mean_depth : float;
  max_depth_seen : int;
  union_coverage : Coverage.t;
  distinct_event_kinds : int;
  violations : int;
}

val aggregate : walk list -> aggregate
val pp_aggregate : Format.formatter -> aggregate -> unit
