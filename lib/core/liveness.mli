(** Bounded liveness checking approximated through safety (paper §3.1:
    "We also approximate liveness property checking based on the checking of
    safety properties").

    A bounded-eventually property ◇P is checked by exploring the constrained
    state space and requiring that from every frontier state — one whose
    outgoing transitions are all pruned by the budget — the predicate P has
    been satisfied somewhere along the way. A frontier state on a path where
    P never held is a (bounded) liveness counterexample: within the whole
    budget, the good thing never happened.

    This catches stuck-cluster bugs such as WRaft#9 (elections can never
    complete) and WRaft#3 (a follower lags forever) without LTL machinery. *)

type result = {
  satisfied : bool;
  distinct : int;
      (** distinct (state, P held so far) pairs explored: a state reached
          both along a path where P held and along one where it never did
          counts twice *)
  counterexample : Trace.t option;
      (** a budget-exhausting path along which P never held *)
  labels : string list;
      (** the counterexample's labels ({!Spec.labels}); [[]] without one *)
  duration : float;
}

val check_eventually :
  ?time_budget:float ->
  ?max_states:int ->
  Spec.t ->
  Scenario.t ->
  p:(Tla.Value.t -> bool) ->
  result
(** [check_eventually spec scenario ~p] — does every maximal path through
    the bounded state space reach a state whose observation satisfies [p]?
    It is {!Explorer.check} over the spec in product with a flag "[p] held
    somewhere on the path here", without symmetry reduction ([p] need not
    be invariant under node renaming), so the counterexample is a shortest
    one. Stops at the first counterexample. A [Budget_spent] interruption
    reports [satisfied = true] with whatever was explored (bounded
    guarantee only; check [distinct]). *)

val leader_elected : Tla.Value.t -> bool
(** Convenience predicate: some node observes as role "leader" or
    "leading". *)

val pp_result : Format.formatter -> result -> unit
