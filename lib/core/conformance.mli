(** Conformance checking (paper §3.2).

    Random specification-level walks are replayed against the implementation
    by enforcing the same event interleaving; after every event the
    specification state and the implementation state are compared, and any
    discrepancy is reported with the inconsistent variables and the event
    sequence that led to it. Rounds repeat until a discrepancy appears or
    the time/round budget expires ("no discrepancy for 30 minutes" in the
    paper's methodology).

    Round [r] replays walk [r - 1] of [seed]'s {!Simulate} stream — the
    walk [Simulate.walks ~seed] lists at that index under the same depth
    bound — generated on the calling domain when its round starts and
    dropped once replayed, so memory does not grow with the round count.
    It is a [Simulate.Conform] walk: it builds only the successor it takes
    and evaluates no invariant and collects no coverage, since only the
    observations are compared. *)

type sut = {
  execute : Trace.event -> (unit, string) result;
      (** run one event at the implementation level *)
  observe : unit -> Tla.Value.t;
      (** implementation state, same shape as the (masked) spec observation *)
}
(** A booted system under test: the implementation cluster behind the
    deterministic execution engine. *)

type failure =
  | State_mismatch of Tla.Value.diff list
      (** spec and impl disagree on observed variables *)
  | Impl_error of string
      (** the implementation crashed or refused an enabled event — a
          by-product bug (§3.2) or a missing impl capability *)

type discrepancy = {
  round : int;  (** 1-based walk number *)
  events : Trace.t;  (** the full walk *)
  labels : string list;
      (** each event's label ({!Spec.labels}), rendered when the
          discrepancy is found *)
  failed_at : int;  (** 0-based index of the offending event *)
  failure : failure;
}

type report = {
  rounds_run : int;
  total_events : int;
  discrepancy : discrepancy option;
  duration : float;
}

val pp_discrepancy : Format.formatter -> discrepancy -> unit
val pp_report : Format.formatter -> report -> unit

val replay :
  mask:(Tla.Value.t -> Tla.Value.t) ->
  boot:(Scenario.t -> sut) ->
  Scenario.t ->
  Trace.t ->
  Tla.Value.t list ->
  (int * failure) option
(** [replay ~mask ~boot scenario events observations] boots the implementation
    and runs [events] on it, comparing its observation after each one with
    the [mask]ed spec observation at the same index: [Some (i, failure)]
    for the first event [i] that fails, [None] when all pass. Every
    conformance round and {!Replay.confirm} replay through it. Raises
    [Invalid_argument] when the two lists differ in length. *)

val run :
  ?mask:(Tla.Value.t -> Tla.Value.t) ->
  ?walk_depth:int ->
  ?time_budget:float ->
  ?probe:Probe.t ->
  ?progress_every:int ->
  ?progress:(int -> int -> unit) ->
  Spec.t ->
  boot:(Scenario.t -> sut) ->
  Scenario.t ->
  rounds:int ->
  seed:int ->
  report
(** [mask] projects the spec observation down to the variables the
    implementation can expose (API- or log-observable ones); default is the
    identity. Walks are [walk_depth] (default 30) events deep at most and
    record their observations. Stops at the first discrepancy.

    With [probe], each walk runs in a ["walk"] span and each replay in a
    ["replay"] span, bumping [sim.walks] / [sim.events] and
    [conform.rounds] / [conform.events]. [progress] (fired every
    [progress_every] completed rounds) receives the round number and the
    cumulative replayed-event count. *)
