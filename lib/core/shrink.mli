(** Counterexample shrinking: replay-validated trace minimization.

    The engines hand back *a* failing event sequence — BFS traces are
    depth-minimal but still interleave irrelevant deliveries, timeouts and
    client ops with the events that matter, and simulation / conformance
    walks can be hundreds of events long. Shrinking turns any of them into
    a minimal repro: ddmin-style chunk removal down to single-event
    elision, where {e every} candidate is validated by re-running it
    through the specification and accepted only if the same failure still
    occurs.

    {b Re-addressing.} Removing an event changes the network state every
    later event sees: eliding one [Deliver] on a link shifts the buffer
    [index] of every message behind it. A candidate is therefore not
    matched against the spec's enabled transitions verbatim — each
    [Deliver] is re-addressed against the live buffer by its label
    ({!Spec.S.describe}, the message descriptor): first an exact
    [(src, dst, index)] + label match (the unperturbed case), then the
    same message looked up by label at whatever index it now occupies,
    then a purely positional match. [Drop]/[Duplicate] (no label) fall
    back from exact to same-link positional. The recorded labels come from
    one replay of the input trace; a candidate's enabled transitions are
    labelled from its live state, and accepted candidates are rewritten in
    terms of the transitions actually taken, with those live labels — so
    the output trace always replays verbatim.

    {b Validation contract.} A candidate is accepted iff it replays from
    the first initial state and ends in the same class of failure as the
    input: for {!Invariant} the named invariant is checked after every
    step and the candidate is truncated at the {e earliest} violating
    state (suffix truncation comes for free). State constraints are
    deliberately {e not} enforced along the way — the explorer reports
    violations on states it discovers even when they fall outside the
    constraint envelope, and shrinking must be able to reproduce exactly
    those.

    {b Determinism.} Candidate generation is purely positional and each
    round keeps the first accepted candidate in generation order,
    evaluating none after it — so the minimized trace and the
    tried/accepted/rounds counters depend on the input trace alone. *)

type oracle =
  | Invariant of string
      (** the named spec invariant must be violated by the final state
          (and by no earlier state — candidates are truncated to the
          earliest violation) *)
  | Custom of (Trace.t -> Trace.t option)
      (** arbitrary acceptance check on the candidate re-addressed as
          above (so it replays verbatim on the spec); returns the prefix of
          it to keep, or [None] to reject. Used by the CLI to shrink
          conformance discrepancies, where acceptance means the
          implementation still diverges from the spec (truncated there). *)

type labelled = (Trace.event * string) list
(** A candidate: each event with the label it is re-addressed by. *)

val validate :
  Spec.t -> Scenario.t -> oracle -> labelled -> labelled option
(** One candidate check: re-address, replay, and test the oracle.
    [Some t] is the accepted (re-addressed, possibly truncated) trace,
    labelled from the live states. Raises [Invalid_argument] if an
    {!Invariant} oracle names an invariant the spec does not declare. *)

type outcome = {
  minimized : Trace.t;
  labels : string list;
      (** each minimized event's label, rendered from the live state it
          was re-addressed against *)
  original_len : int;
  minimized_len : int;  (** [<= original_len] *)
  tried : int;
      (** candidates generated, each round's whole batch counted; a round
          stops evaluating at its first hit *)
  accepted : int;  (** rounds that found a smaller failing trace *)
  rounds : int;  (** candidate batches evaluated *)
  duration : float;  (** wall seconds *)
}

val run :
  ?probe:Probe.t -> Spec.t -> Scenario.t -> oracle -> Trace.t -> outcome
(** Minimize a failing trace: validate the input (for [Invariant] this
    already truncates it at the earliest violation), then ddmin — per
    round, drop one of [n] contiguous chunks, accept the first candidate
    that still fails, refine the granularity on success and double it on
    failure until single-event elision is exhausted. The result still
    fails the oracle and replays verbatim on the spec.

    Raises [Invalid_argument] if the input trace itself does not
    reproduce the failure.

    With [probe], runs inside a ["shrink"] span and bumps the
    [shrink.candidates] / [shrink.accepted] / [shrink.rounds] counters. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-line summary: lengths, reduction %, candidates, wall time. *)
