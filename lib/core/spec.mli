(** Specifications as state machines (paper §3.1).

    A specification defines initial states, enabled transitions labelled with
    node-level events, safety invariants used as bug oracles, and a state
    constraint bounding exploration. It must expose its observable variables
    as a {!Tla.Value.t} record for conformance checking, and a node-id
    permutation for symmetry reduction. *)

module type S = sig
  type state

  val name : string

  val init : Scenario.t -> state list
  (** All initial states for the given configuration. *)

  val next : Scenario.t -> state -> (Trace.event * state) list
  (** All enabled transitions from [state]. Events must uniquely identify
      their transition (deterministic replay requirement, §3.4). *)

  val successors : Scenario.t -> state -> (Trace.event * (unit -> state)) list
  (** [next]'s transitions, in [next]'s order, each state built only when
      its thunk is called: [force (successors sc s)] is [next sc s] (same
      events, equal states). Which events are enabled is decided here, so
      a caller that needs one successor — a conformance walk, {!step},
      shrinking's re-addressing, [Script] — builds only that one. Each
      call of a thunk builds its state anew. *)

  val constraint_ok : Scenario.t -> state -> bool
  (** TLC-style [StateConstraint]: states violating it are recorded but not
      expanded. *)

  val invariants : (string * (Scenario.t -> state -> bool)) list
  (** Named safety properties; a [false] result is a violation. *)

  val observe : state -> Tla.Value.t
  (** Observable variables compared during conformance checking, once per
      replayed event. Builders that list record fields and map bindings in
      canonical order (names by [String.compare], keys by
      {!Tla.Value.compare}) take the constructors' linear path with no
      sort; any order is still correct. *)

  val permutable : bool
  (** Whether node-id permutation preserves the transition relation. Set
      [false] when the protocol orders nodes by id (ZooKeeper's leader
      election breaks vote ties by server id) or for asymmetric
      deployments. *)

  val permute : int array -> state -> state
  (** [permute p s] renames node [i] to [p.(i)] everywhere in [s]. *)

  val node_key : state -> int -> int
  (** [node_key s i] summarises node [i]'s own state without naming any
      node id, so symmetry reduction ({!Symmetry}) fingerprints only the
      permutations that sort the nodes by key. Contract (equivariance):
      [node_key (permute p s) p.(i) = node_key s i] for every [p], [s] and
      [i]. A constant key is always correct and makes every permutation a
      candidate. A finer key only shrinks the candidate set; a key that
      breaks the contract cannot merge states of different orbits, but it
      can leave states of one orbit unmerged, so the explored space grows
      and its counts stop matching the all-permutations reduction. *)

  val describe : state -> Trace.event -> string
  (** [describe s e] is the human-readable label of event [e] taken from
      state [s] (its predecessor), e.g. a delivery's message descriptor
      (["AE(t1,p0:0,+1,c0)"]); [""] for events that need none. Only reports,
      trace files and counterexample re-addressing ({!Shrink}, {!Script})
      read labels, so [next] never builds them. *)

  val pp_state : Format.formatter -> state -> unit
end

type t = (module S)

val force : (Trace.event * (unit -> 's)) list -> (Trace.event * 's) list
(** Build every successor of a {!S.successors} list, in order. *)

val name : t -> string

val step :
  (module S with type state = 's) -> Scenario.t -> 's -> Trace.event ->
  's option
(** [step spec scenario state e] is the successor of [state] whose event
    equals [e] ({!Trace.equal_event}), the only one it builds, or [None]
    when [next] offers no such event — the replay step behind
    provenance-chain recovery, {!observations_along}, {!labels} and
    [Script]. *)

val observations_along : t -> Scenario.t -> Trace.t -> Tla.Value.t list option
(** [observations_along spec scenario events] replays [events] from the
    (first) initial state and returns the observation after every event
    (length = length of [events]); [None] if some event is not enabled where
    the trace demands it. *)

val labels : t -> Scenario.t -> Trace.t -> string list
(** [labels spec scenario events] replays [events] from the (first)
    initial state and returns [S.describe] of every event at the state it
    leaves (length = length of [events]); labels past an event that is not
    enabled where the trace demands it are [""]. *)
