(** Random-walk simulation (TLC simulation mode).

    Used for (1) conformance checking — walks generate traces replayed at the
    implementation level (§3.2); (2) constraint ranking data collection
    (Algorithm 1); (3) the specification-side of the speedup comparison
    (§5.3).

    One seed names one walk stream: walk [i] of seed [s] draws from
    [rng_for ~seed:s i] alone, so under the same [max_depth] it is the
    same walk in {!walks}, [Conformance.run]'s round [i + 1] and
    [lib/par]'s parallel [Par_simulate.walks] at any worker count, for
    either {!purpose} (a [Check] walk may stop early at a violation, and
    under other depth bounds one walk is a prefix of the other). *)

type walk = {
  events : Trace.t;
  depth : int;
  coverage : Coverage.t;
      (** branches hit along the walk; empty for a [Conform] walk *)
  violation : (string * int) option;
      (** invariant name and the 1-based event index at which it first
          broke; always [None] for a [Conform] walk *)
  observations : Tla.Value.t list;
      (** observation after each event (same length as [events]) for a
          [Conform] walk; [[]] for a [Check] walk *)
}

(** What a walk is for. Both purposes draw the same walk from the same
    RNG: they take the same successors and stop at the same depth unless a
    [Check] walk stops early at a violation. *)
type purpose =
  | Check
      (** simulation, ranking and bug hunting: every enabled successor is
          built ([S.next]), so coverage records every branch they take;
          the invariants are evaluated at every state and the walk stops
          at the first one that breaks *)
  | Conform
      (** conformance replay: only the successor the walk takes is built
          ([S.successors]) and its observation recorded; no invariant is
          evaluated and no coverage collected *)

type options = { max_depth : int; purpose : purpose }

val default : options
(** [{ max_depth = 50; purpose = Check }]. *)

val walk : ?probe:Probe.t -> Spec.t -> Scenario.t -> options ->
  Random.State.t -> walk
(** One random walk from a uniformly chosen initial state, choosing
    uniformly among enabled transitions of constraint-satisfying states.
    With [probe], the walk runs inside a ["walk"] span and bumps the
    [sim.walks] / [sim.events] counters. *)

val rng_for : seed:int -> int -> Random.State.t
(** [rng_for ~seed i]: a fresh RNG for walk [i] of [seed]'s stream, derived
    from [(seed, i)] alone by a SplitMix64-style finaliser. *)

val walks :
  ?probe:Probe.t -> Spec.t -> Scenario.t -> options -> seed:int ->
  count:int -> walk list
(** Walks [0 .. count - 1] of [seed]'s stream, in index order. *)

type aggregate = {
  runs : int;
  total_events : int;
  mean_depth : float;
  max_depth_seen : int;
  union_coverage : Coverage.t;
  event_kinds : string list;  (** {!Trace.kind}s seen, sorted *)
  violations : int;
  first_violation : walk option;
      (** the first violating walk in walk order *)
}
(** A running summary of walks: it keeps one walk, not all of them, so a
    caller that folds walks into it as they finish holds memory flat in
    the walk count. *)

val no_walks : aggregate

val add : aggregate -> walk -> aggregate
(** [add a w] counts [w] after the walks of [a] ([first_violation]
    assumes walks are added in walk order). *)

val merge : aggregate -> aggregate -> aggregate
(** [merge a b] counts the walks of [a], then those of [b]. *)

val aggregate : walk list -> aggregate
(** The walks added in list order. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
