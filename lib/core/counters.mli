(** Event counters carried inside specification states.

    Mirrors the auxiliary [eventCounter] variable of the paper's ZAB
    specification (Fig. 2): counts of bounded event classes, checked against
    the scenario budget by the state constraint. *)

type t = {
  timeouts : int;
  requests : int;
  crashes : int;
  restarts : int;
  partitions : int;
  drops : int;
  dups : int;
}

val zero : t
val bump : t -> Trace.event -> t
(** Increment the counter class of the event ([Deliver]/[Heal] are free). *)

val bounds : (string * int) list -> t
(** Each counter's bound in a budget: the first binding of its key, or
    [max_int] (unbounded) when the key is absent. The list is structurally
    [Scenario.budget]; spelled out to keep this module below {!Scenario}
    in the dependency order (fault plans sit between the two). *)

val within_bounds : t -> t -> bool
(** [within_bounds t b]: every counter of [t] at most its bound in [b]. *)

val within : t -> (string * int) list -> bool
(** [within t budget = within_bounds t (bounds budget)]. *)

val encode : Binio.sink -> t -> unit
val decode : Binio.source -> t
(** Binary codec ({!Binio} wire format); [decode] raises {!Binio.Corrupt}
    on malformed input. *)

val observe : t -> Tla.Value.t
val pp : Format.formatter -> t -> unit
