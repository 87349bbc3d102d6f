(** Uniform access to the eight integrated systems (paper §4.2) for the
    CLI, tests and benchmark harness, including the paper-reported numbers
    used by the table reproductions (Tables 1–4). *)

type paper_row = {
  stars : string;  (** GitHub stars as reported in Table 1 *)
  impl_loc : string;  (** modelled implementation LoC (Table 1) *)
  spec_loc : int;
  vars : int;
  acts : int;
  invs : int;
  effort_spec : int;  (** person-days *)
  effort_conf : int;
}

type table4_row = {
  t4_trace_depth : string;  (** e.g. ["9–54"] *)
  t4_avg_depth : int;
  t4_spec_ms : float;
  t4_impl_ms : float;
  t4_speedup : int;
}

type t = {
  name : string;
  semantics : Sandtable.Spec_net.semantics;
  spec : Bug.Flags.t -> Sandtable.Spec.t;
  sut :
    Bug.Flags.t -> Engine.Cost.profile option -> Sandtable.Scenario.t ->
    Sandtable.Conformance.sut;
  bundle : Bug.Flags.t -> Sandtable.Scenario.t -> Sandtable.Workflow.bundle;
  boot_impl : Bug.Flags.t -> Engine.Syscall.boot;
  timeouts : (string * int) list;
  default_scenario : Sandtable.Scenario.t;
  table3_scenario : Sandtable.Scenario.t;
      (** experiment #1's restrictive, exhaustible constraints; experiment
          #2 doubles them *)
  cost_profile : Engine.Cost.profile;
  bugs : Bug.info list;
  all_flags : string list;
  fault_schedules : (string * Faults.Schedule.t) list;
      (** named declarative fault schedules, valid for the system's default
          cluster shape; resolvable by the CLI's [--faults NAME] *)
  spec_file : string;  (** repo-relative path, for measured spec LoC *)
  paper : paper_row;
  paper_t4 : table4_row;
}

val all : t list
val find : string -> t
(** Raises [Not_found]. *)

val names : string list

val schedule_of : t -> string -> Faults.Schedule.t option
(** Look up one of the system's named fault schedules. *)

val flags_of : t -> string list -> Bug.Flags.t
(** Resolve bug ids (["PySyncObj#4"]) or raw flags (["pso4"]) to a flag
    set. Unknown names raise [Invalid_argument]. *)

val measured_spec_loc : t -> int option
(** Line count of the spec source file, when running from a source tree. *)

val measured_invariants : t -> int
(** Number of invariants in the (fixed) specification. *)
