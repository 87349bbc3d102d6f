(** A system-agnostic projection of one node's Raft state, used by the
    shared safety invariants ({!Invariants}) and by observation builders. *)

type t = {
  alive : bool;
  role : Types.role;
  current_term : Types.term;
  voted_for : int option;
  log : Log.t;
  commit_index : Types.index;
  next_index : Types.index array;  (** per peer; own slot ignored *)
  match_index : Types.index array;
}

val node_key : self:int -> t -> int
(** A symmetry key ({!Sandtable.Spec.S.node_key}) for node [self]: a hash
    of [alive], [role], [current_term], [commit_index], [log] and whether
    the node voted for itself. It names no node id, so it is equivariant
    for any spec whose [permute] renames [voted_for] and moves the node's
    view to its new slot. *)

val observe : t -> Tla.Value.t
(** Record with fields [status role term voted_for log commit next match];
    down nodes observe as [[status |-> "down"]] plus persistent state. *)

val pp : Format.formatter -> int -> t -> unit
(** One line for node [i]: liveness, role, term, vote, commit index, log,
    next and match indexes. *)
