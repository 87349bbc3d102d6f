(** Per-run [manifest.json]: what ran, how it ended, where the artefacts
    are.

    Written atomically at run start ([Running]), rewritten at completion
    ([Done] / [Failed]). Human-readable and machine-parseable (plain JSON);
    the [runs] CLI command lists a tree of run directories from these.

    One format generation, {!version}: {!load} reads [version] before any
    other field and refuses every other value, older or newer, by name.
    Every field is required; an absent outcome, artefact, schedule or
    shrink summary is written as [null]. There is no migration — re-run
    [check] to record a run in the current format. *)

type status = Running | Done | Failed

type shrink = {
  ms_original : int;  (** event count of the recorded counterexample *)
  ms_minimized : int;  (** event count after shrinking *)
  ms_trace : string;  (** relative path of the minimized trace *)
}
(** Counterexample-shrinking summary. *)

type t = {
  m_system : string;
  m_scenario : string;
  m_identity : string;  (** identity digest ({!Checkpoint.digest_hex}) *)
  m_created : string;  (** UTC, ISO-8601 *)
  m_engine : string;  (** ["seq"], ["par"] or ["ws"] *)
  m_workers : int;
  m_cores : int;
      (** CPU cores available to the run, at least 1. Scaling gates refuse
          to compare runs whose [m_cores < m_workers] — oversubscribed
          workers measure the scheduler, not the engine. *)
  m_flags : (string * string) list;
      (** config knobs, e.g. bug flags and the node count [shrink] rebuilds
          the scenario from *)
  m_status : status;
  m_outcome : string option;  (** e.g. ["violation: AgreeInv"] once done *)
  m_distinct : int;
  m_generated : int;
  m_max_depth : int;
  m_duration : float;
  m_checkpoints : int;  (** checkpoints written during the run *)
  m_checkpoint : string option;  (** relative path, when one exists *)
  m_trace : string option;  (** relative path of the counterexample trace *)
  m_shrink : shrink option;  (** [None] until a counterexample is shrunk *)
  m_faults : string option;
      (** canonical fault-schedule source when the run was driven by one;
          lets resume and shrink replay the same schedule *)
}

val version : int
(** [7]. *)

val file : string
(** ["manifest.json"], relative to the run directory. *)

val make :
  system:string -> scenario:string -> identity:string -> engine:string ->
  workers:int -> cores:int -> flags:(string * string) list -> t
(** A fresh [Running] manifest stamped with the current UTC time. *)

val save : dir:string -> t -> unit
(** Atomic write of [dir ^ "/" ^ file]; creates [dir] if missing. *)

val load : dir:string -> (t, string) result
(** [Error] names the file and the first bad field, or the version found
    and the version expected. *)

val list_runs : string -> (string * (t, string) result) list
(** Immediate subdirectories of the given root that contain a manifest,
    sorted by name; unreadable manifests surface as [Error] rather than
    being dropped. *)

val status_string : status -> string
val pp : Format.formatter -> t -> unit
(** One-line summary, used by the [runs] command. *)
