(** Lowering declarative {!Schedule.t} values into the executable
    {!Sandtable.Fault_plan.t} carried by scenarios.

    Compilation validates the schedule (known trigger counters, node ids in
    range, canonical proper partition groups, positive sampling bounds,
    [until] present on every non-final phase) and converts each phase's
    {e per-phase} event limits into the plan's {e cumulative} counter caps:
    a phase's cap is the running total of limits declared for that fault
    kind up to and including the phase, so each phase may add at most its
    declared number of new events. A clause with limit [0] (or an absent
    clause) disables the fault kind for that phase outright.

    {!apply} attaches the compiled plan to a scenario and reconciles the
    budget: each fault kind's budget key is raised to at least the plan's
    total cap, so the state constraint cannot prune plan-enabled events.
    The budget holds bounds only; the schedule's identity is the plan's
    digest, which {!Sandtable.Fault_plan.pp} prints in every printed
    scenario, so checkpoints, manifests and shrink replays are
    schedule-aware. *)

val to_plan :
  nodes:int -> Schedule.t -> (Sandtable.Fault_plan.t, string) result
(** Validate against a cluster of [nodes] nodes and lower. *)

val apply :
  Schedule.t -> Sandtable.Scenario.t -> (Sandtable.Scenario.t, string) result
(** Compile against [scenario.nodes], merge budget keys, attach the plan.
    The result still satisfies {!Sandtable.Scenario.validate}. *)
