(** Directed trace construction: a scripted scheduler.

    Deep bugs whose optimal traces exceed what bounded BFS can reach in a
    short budget (e.g. the paper's ZooKeeper#1 at depth 41) are reproduced
    with a script: a list of event patterns matched greedily against the
    enabled transitions. The resulting concrete trace replays both at the
    specification level and — through {!Replay.confirm} — at the
    implementation level. *)

type pattern = Trace.event -> string -> bool
(** Matches an enabled event, given with its label ({!Spec.S.describe} at
    the current state). *)

val timeout : Trace.node -> string -> pattern
val deliver : src:Trace.node -> dst:Trace.node -> pattern
val deliver_msg : src:Trace.node -> dst:Trace.node -> string -> pattern
(** Also requires the delivery's label (its message descriptor) to
    contain the given substring. *)

val client : Trace.node -> pattern
val client_op : Trace.node -> string -> pattern
val crash : Trace.node -> pattern
val restart : Trace.node -> pattern
val partition : Trace.node list -> pattern
val heal : pattern
val drop : src:Trace.node -> dst:Trace.node -> pattern
val duplicate : src:Trace.node -> dst:Trace.node -> pattern
val any : pattern

type failure = {
  at : int;  (** 0-based script step that failed *)
  enabled : (Trace.event * string) list;
      (** what was enabled instead, each event with its label *)
}

val pp_failure : Format.formatter -> failure -> unit

val run : Spec.t -> Scenario.t -> pattern list -> (Trace.t, failure) result
(** Greedily take the first enabled transition matching each pattern in
    turn, starting from the first initial state. *)

val violation_after :
  Spec.t -> Scenario.t -> Trace.t -> (string * int) option
(** Replay a trace and report the first invariant violated along it, with
    the 1-based event index where it first broke; [None] if the trace ends
    with all invariants intact (or is not replayable). *)
