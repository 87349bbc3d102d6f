(** Model-checking scenarios: configuration × budget constraints (§3.3).

    A {e configuration} fixes the cluster shape (node count, workload values)
    used to instantiate a specification; a {e budget} bounds the state space
    (maximum numbers of timeouts, failures, client requests, message-buffer
    sizes). SandTable ranks budgets per configuration with Algorithm 1.

    A scenario may additionally carry a compiled {!Fault_plan.t}: a
    declarative fault schedule (built by the [lib/faults] compiler) with
    phase-structured, selector-restricted fault injection. Without one,
    {!Envgen} runs the scenario under the one phase its budget encodes
    ({!Fault_plan.budget_phase}). The plan travels inside the scenario so
    every engine and walk mode consumes it unchanged. *)

type budget = (string * int) list
(** Named bounds. Standard keys used across the bundled systems:
    ["timeouts"], ["requests"], ["crashes"], ["restarts"], ["partitions"],
    ["buffer"] (max per-link message queue length), ["drops"], ["dups"],
    ["epochs"]. Missing keys mean unbounded. A budget holds bounds only:
    a fault schedule's identity is in its plan. *)

val budget_get : budget -> string -> default:int -> int

val memo : (budget -> 'a) -> budget -> 'a
(** [memo f] is [f] remembering its last answer by the budget list's
    physical identity, so an engine that asks once per state for something
    derived from its scenario's budget (resolved bounds, a fault phase)
    computes it once per budget list instead. A different list — two
    budgets alternating in one process — recomputes and replaces it.
    Domain-safe. *)

val valid_keys : string list
(** The closed set of recognised bound keys. *)

val double : budget -> budget
(** Double every bound — used by Table 3 experiment #2 ("doubled the
    constraints"). *)

val pp_budget : Format.formatter -> budget -> unit

type t = {
  name : string;
  nodes : int;
  workload : int list;
  budget : budget;
  faults : Fault_plan.t option;
}
(** [workload] lists the distinct client values available (symmetry-reduced
    workload values, §3.3: "two workload values"). [faults], when present,
    is a compiled fault schedule driving {!Envgen}. *)

val v :
  ?name:string -> ?faults:Fault_plan.t -> nodes:int -> workload:int list ->
  budget -> t

val validate : t -> (unit, string) result
(** Reject unknown (e.g. typo'd) or negative budget keys. Surfaced by the
    CLI as exit 2: a misspelled key would otherwise silently mean
    "unbounded". *)

val pp : Format.formatter -> t -> unit
(** Includes the fault-plan summary, digest included ({!Fault_plan.pp}),
    when one is attached, so checkpoint identities built over the printed
    scenario cover the schedule. *)
