(** Compiled fault schedules (the target of the [lib/faults] compiler).

    A fault plan is the executable form of a declarative fault schedule: an
    ordered list of {e phases}, each enabling a subset of environment fault
    actions (crash, restart, partition, heal, UDP packet drop/duplication,
    timeout restriction) under {e cumulative} event-count caps, plus global
    per-node clock skews applied to the implementation's virtual clocks.

    Plans are interpreted by {!Envgen} during transition enumeration. Every
    question the interpreter asks — which phase is active, whether an event
    is allowed — is a pure function of the state's {!Counters.t}, so plan
    semantics are deterministic, engine-independent and replayable: the same
    schedule and seed produce the same state space at any worker count, and
    a recorded trace replays identically under its recorded schedule.

    Enumeration is {e exhaustive within the fault budget}: every allowed
    fault choice becomes a transition. A scenario without a plan is
    enumerated through the one phase its flat budget encodes
    ({!budget_phase}), so there is one fault semantics. A rule may
    additionally carry a {!sample} bound: when the candidate set at a
    state exceeds the bound, a seeded hash ranking keeps a deterministic
    pseudo-random subset — exhaustive within the bound, seeded-random
    beyond it. *)

type node_sel =
  | Any_node
  | Nodes of int list  (** explicit node ids *)
  | Leader  (** the lowest-numbered live leader, per the spec's [leader] op *)
  | Followers  (** every node that is not the current leader *)

type group_sel =
  | All_groups  (** every canonical proper group ({!Envgen.proper_groups}) *)
  | Groups of int list list  (** explicit groups, canonicalized at compile *)
  | Isolate_leader
      (** the canonical two-sided cut separating the current leader from
          the rest; no event when no leader is known *)

type trigger = { tg_counter : string; tg_count : int }
(** Satisfied once the named {!Counters.t} field reaches [tg_count].
    Valid names: the {!counter_names} list. *)

type sample = { sm_keep : int; sm_seed : int }
(** Keep at most [sm_keep] candidates per state, selected by a seeded
    deterministic hash ranking (exhaustive when the candidate set fits). *)

type rule = { r_cap : int; r_sel : node_sel; r_sample : sample option }
(** [r_cap] is a {e cumulative} cap on the corresponding counter: the rule
    is enabled while the counter is below it. *)

type link_rule = {
  lr_cap : int;
  lr_src : node_sel;
  lr_dst : node_sel;
  lr_sample : sample option;
}

type part_rule = { pr_cap : int; pr_groups : group_sel; pr_sample : sample option }
type heal_mode = Heal_auto | Heal_never | Heal_after of trigger

type phase = {
  ph_label : string;
  ph_until : trigger option;  (** [None]: final, open-ended phase *)
  ph_crash : rule option;  (** [None]: crashes disabled in this phase *)
  ph_restart : rule option;
  ph_partition : part_rule option;
  ph_heal : heal_mode;
  ph_drop : link_rule option;
  ph_dup : link_rule option;
  ph_timeout : rule option;
      (** [None]: timeouts unrestricted (budget-gated by the spec only) *)
}

type t = {
  pl_name : string;
  pl_phases : phase list;  (** nonempty *)
  pl_skew_ms : (int * int) list;
      (** per-node initial virtual-clock skews, applied by the
          implementation-level cluster at boot *)
  pl_src : string;
      (** canonical schedule source (s-expression); the identity recorded
          in manifests and checkpoint identities *)
}

val counter_names : string list
(** The counter fields a {!trigger} may reference. *)

val counter_value : Counters.t -> string -> int
(** Raises [Invalid_argument] on a name outside {!counter_names}. *)

val trigger_met : Counters.t -> trigger -> bool

val phase_index : t -> Counters.t -> int
(** Index of the active phase: the first phase whose [ph_until] trigger is
    not yet satisfied (the final phase is sticky). *)

val budget_phase : (string * int) list -> phase
(** The phase a flat budget encodes, active in every scenario without a
    plan: crash, restart and partition caps from the ["crashes"],
    ["restarts"] and ["partitions"] keys (default 1), drop and dup caps
    from ["drops"] and ["dups"] (default 0), any node or link, every
    proper group, auto-heal, and no timeout rule. The first binding of a
    key wins; a cap of 0 disables its kind. It equals [Faults.Compile]'s
    lowering of a one-phase schedule labelled ["budget"] with those
    limits. *)

val node_selected : node_sel -> leader:int option -> int -> bool
(** [Leader]/[Followers] resolve against [leader]; with no known leader,
    [Leader] selects nothing and [Followers] selects everything. *)

val sample_select : sample option -> ('a -> string) -> 'a list -> 'a list
(** [sample_select s key cands] keeps all candidates when [s] is [None] or
    they fit within [sm_keep]; otherwise the [sm_keep] candidates with the
    smallest seeded hash of [key cand], in original order. *)

val digest : t -> int
(** Stable 24-bit hash of [pl_src]. {!pp} prints it, so the plan's
    identity is in every printed scenario and checkpoint identity. *)

val is_noop : t -> bool
(** No phase enables any fault event, no clock is skewed, and no timeout
    restriction applies: the plan cannot influence exploration. *)

val enabled_kinds : t -> string list
(** Sorted fault kinds some phase enables (["crash"; "drop"; ...]);
    includes ["skew"] when clocks are skewed and ["timeout"] when a phase
    restricts timeouts. *)

val obs_kind : Trace.event -> string option
(** The ["fault.*"] observability counter for a fault event ([None] for
    deliveries, timeouts and client requests). *)

val pp : Format.formatter -> t -> unit
(** [NAME#DIGEST: N phases [KINDS]], e.g.
    [leader-partition#247830: 3 phases [heal,partition]], with the
    digest in six hex digits and a [skew{...}] suffix when clocks are
    skewed. *)
