(** What the four Raft-family specifications (PySyncObj, RaftOS, the
    WRaft family and the Xraft family) share on top of the cluster
    skeleton ({!Sandtable.Cluster_spec}). The implementations
    ([*_impl.ml]) keep their own copies: conformance checking compares two
    independent codes. *)

include module type of Sandtable.Cluster_spec.Record (Net)
(** The four-field state over Raft messages and its helpers. *)

val up_to_date :
  Log.t -> last_log_term:Types.term -> last_log_index:Types.index -> bool
(** Raft's vote restriction: a candidate whose last entry is
    [(last_log_term, last_log_index)] is at least as up to date as a voter
    holding this log. *)

val quorum_match : Log.t -> Types.index array -> self:int -> Types.index
(** [quorum_match log match_index ~self] is the largest index replicated on
    a quorum as leader [self] sees it: its own log counts with its last
    index, every peer [j] with [match_index.(j)]. *)

val invariants :
  ('node -> View.t) ->
  (string * (View.t array -> bool)) list ->
  string list ->
  (string * (Sandtable.Scenario.t -> 'node t -> bool)) list
(** [invariants view_of checks flags] is every check on the cluster's
    views, then {!Invariants.no_flag} for every flag. *)
