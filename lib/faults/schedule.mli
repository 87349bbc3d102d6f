(** Declarative fault schedules: the surface language of [lib/faults].

    A schedule is an ordered list of {e phases}; each phase declares which
    fault classes the environment may inject while it is active — node
    crashes and restarts, network partitions with heal windows, per-link
    UDP packet drops and duplications, timeout restrictions — with
    {e per-phase} event limits, node/link selectors and optional sampling
    bounds. Global per-node clock skews perturb the implementation-level
    virtual clocks at boot.

    Schedules have two equivalent forms: OCaml combinators ({!schedule},
    {!phase}, {!crash}, ...) for programmatic construction (the registry's
    named schedules), and an s-expression concrete syntax ({!parse} /
    {!to_string}) for `--faults FILE`:

    {v
    (schedule leader-partition
      (seed 7)
      (skew (node 1) (ms 40))
      (phase quiet (until timeouts 2))
      (phase storm (until partitions 1)
        (partition (limit 1) (isolate-leader))
        (heal never))
      (phase recover
        (heal (after timeouts 4))
        (restart (limit 1))))
    v}

    Every phase clause is optional: an omitted fault class is disabled for
    that phase ([heal] defaults to [auto]; [timeouts] defaults to
    unrestricted). [until COUNTER N] advances to the next phase once the
    named event counter reaches [N]; the last phase is open-ended.
    {!Compile.to_plan} lowers a schedule into the executable
    {!Sandtable.Fault_plan.t} carried by scenarios.

    A scenario without a schedule already runs under one: the one phase
    its flat budget encodes ({!Sandtable.Fault_plan.budget_phase}), which
    is what [schedule NAME [phase "budget" [crash c; restart r;
    partition p; drop d; dup u]]] lowers to. *)

type sel =
  | Any
  | Picked of int list  (** explicit node ids *)
  | Leader
  | Followers

type groups =
  | All_proper  (** every canonical proper partition group *)
  | Explicit of int list list
  | Isolate_leader

type trigger = { counter : string; count : int }
type heal = Auto | Never | After_trigger of trigger

type fault =
  | Crash of { limit : int; sel : sel; sample : int option }
  | Restart of { limit : int; sel : sel; sample : int option }
  | Partition of { limit : int; groups : groups; sample : int option }
  | Heal of heal
  | Drop of { limit : int; src : sel; dst : sel; sample : int option }
  | Dup of { limit : int; src : sel; dst : sel; sample : int option }
  | Timeouts of { limit : int; sel : sel }

type phase = { label : string; until : trigger option; faults : fault list }

type t = {
  name : string;
  seed : int;  (** sampling seed; [0] when no rule samples *)
  skew : (int * int) list;  (** [(node, ms)] virtual-clock boot skews *)
  phases : phase list;
}

(** {1 Combinators} *)

val schedule : ?seed:int -> ?skew:(int * int) list -> string -> phase list -> t
val phase : ?until:trigger -> string -> fault list -> phase

val after : string -> int -> trigger
(** [after "timeouts" 2] — met once the counter reaches the count. *)

val crash : ?sel:sel -> ?sample:int -> int -> fault
val restart : ?sel:sel -> ?sample:int -> int -> fault
val partition : ?groups:groups -> ?sample:int -> int -> fault
val heal : heal -> fault
val drop : ?src:sel -> ?dst:sel -> ?sample:int -> int -> fault
val dup : ?src:sel -> ?dst:sel -> ?sample:int -> int -> fault
val timeouts : ?sel:sel -> int -> fault

(** {1 Concrete syntax} *)

val to_string : t -> string
(** Canonical s-expression rendering; [parse (to_string t)] returns a
    schedule that prints identically (the fixpoint is the identity surface
    recorded in manifests). *)

val parse : string -> (t, string) result
(** Parse the s-expression syntax. [;] starts a line comment. Errors name
    the offending clause. *)

val pp : Format.formatter -> t -> unit
