(** Shared enumeration of environment transitions (node and network
    failures, §3.1 "Specifying environment actions").

    Crash, restart, partition, heal and UDP packet-fault events are
    identical across systems; each specification plugs its state type in
    through a small record of accessors and receives the event list.

    There is one enumeration, driven by a {!Fault_plan.phase}: selectors
    restrict which nodes/links/groups may fault, cumulative caps bound each
    fault counter, heal modes gate recovery, and sampled rules keep a
    seeded deterministic subset of an over-large candidate set. {!phase}
    gives a state's active phase: its plan's phase at the state's counters
    ({!Scenario.t.faults}, built by the [lib/faults] compiler), or, for a
    scenario without a plan, the one phase its flat budget encodes
    ({!Fault_plan.budget_phase}). A specification computes it once per
    state and passes it to all three enumerations. *)

type 'st ops = {
  counters : 'st -> Counters.t;
  with_counters : 'st -> Counters.t -> 'st;
  node_count : 'st -> int;
  alive : 'st -> int -> bool;
  fully_connected : 'st -> bool;
  crash : 'st -> int -> 'st;
  restart : 'st -> int -> 'st;
  partition : 'st -> int list -> 'st;
  heal : 'st -> 'st;
  leader : 'st -> int option;
      (** the lowest-numbered live node currently acting as leader, if any;
          resolves the [Leader]/[Followers]/[Isolate_leader] selectors of a
          fault plan *)
}

type 'st net_ops = {
  net_deliverable : 'st -> (int * int * int) list;
      (** all [(src, dst, index)] in-flight packet choices *)
  net_drop : 'st -> src:int -> dst:int -> index:int -> 'st option;
  net_duplicate : 'st -> src:int -> dst:int -> index:int -> 'st option;
}
(** Packet-level accessors (UDP semantics) for {!packet_events}; both
    return the state with the network updated but counters untouched, and
    [None] only for an address [net_deliverable] does not list. *)

val proper_groups : int -> int list list
(** Non-trivial partition groups containing node 0 — one canonical
    representative per two-sided cut. *)

val phase : 'st ops -> Scenario.t -> 'st -> Fault_plan.phase
(** The state's active phase. Under a plan this notes the phase in the
    watermark below; a budget's phase is built once per budget list (by
    physical identity), not once per state. *)

val failure_events :
  'st ops -> Fault_plan.phase -> 'st -> (Trace.event * (unit -> 'st)) list
(** All crash/restart/partition/heal transitions the phase enables at this
    state, with event counters bumped: crashes then restarts, each in
    ascending node order, then partition groups, then heal. Which events
    are enabled is decided here; each successor state is built only when
    its thunk is called. *)

val packet_events :
  'st ops -> 'st net_ops -> Fault_plan.phase -> 'st ->
  (Trace.event * (unit -> 'st)) list
(** All UDP [Drop]/[Duplicate] transitions the phase enables — drops
    first, then duplicates, each in deliverable order, within the link
    selectors, caps and sampling — each state built, as in
    {!failure_events}, when its thunk is called. *)

val timeout_allowed : 'st ops -> Fault_plan.phase -> 'st -> node:int -> bool
(** Whether the phase permits [node] to fire a timeout at this state
    ([true] when it has no timeout rule, as a budget's phase never does);
    the specification's own ["timeouts"] budget check still applies. *)

(** {2 Fault-plan phase watermark} — telemetry only.

    The highest phase index {!phase} has returned under an explicit plan
    since the last reset ([-1] when none did, so budget runs stay at
    [-1]). The watermark is global to the process: [Obs.Run] resets it at
    run start and samples it at layer barriers, where every state of the
    finished layer has been enumerated, so the sampled value is
    deterministic for the deterministic engines. *)

val phase_watermark : unit -> int
val reset_phase_watermark : unit -> unit
