(** The cluster skeleton every bundled specification instantiates (paper
    §3.1 and §4.2): a system is written as node-level actions, and the
    network and failure modules ({!Spec_net}, {!Envgen}) supply the
    environment. {!Make} owns what is the same for every system — the
    successor enumeration, the state constraint, the environment
    transitions, the network half of crash, restart, partition and heal,
    leader lookup, labels, the node-array and network half of [permute],
    and the observation and rendering frame — and a system supplies only
    its node-level parts ({!SYSTEM}).

    {b Enumeration order.} [successors] computes the state's active fault
    phase once ({!Envgen.phase}) and the budget's bounds once per budget
    list ({!Scenario.memo}), and lists, in this order:
    + a [Deliver] for every deliverable message ({!Spec_net.S.deliverable}
      order) whose receiver is alive;
    + UDP packet faults ({!Envgen.packet_events}), when the network's
      semantics is [Udp];
    + per live node in id order, when the ["timeouts"] budget (default 3)
      and the phase ({!Envgen.timeout_allowed}) permit: every enabled kind of
      {!SYSTEM.timeouts}, in list order;
    + per live node in id order that {!SYSTEM.accepts_client}, when the
      ["requests"] budget ({!SYSTEM.default_requests}) permits: every
      {!SYSTEM.client_ops} entry, in list order, on workload value
      [requests mod |workload|];
    + {!Envgen.failure_events}.

    {b Byte identity.} Fingerprints, symmetry representatives, checkpoint
    and frontier bytes are the [Marshal] bytes of states, so a state's
    record layout is part of every recorded run: the skeleton never adds a
    field or a wrapper, and reaches the state only through
    {!SYSTEM}'s accessors. {!Record} is the four-field state all bundled
    systems but XRaft use; XRaft's own record adds a client history. *)

(** The state-access half of {!SYSTEM} and the helpers every handler uses,
    for the state record [{ nodes; net; counters; flags }] over one
    network module. *)
module Record (Net : Spec_net.S) : sig
  type 'node t = {
    nodes : 'node array;
    net : Net.t;
    counters : Counters.t;
    flags : string list;  (** violated action properties, sorted *)
  }

  val init :
    Spec_net.semantics -> (nodes:int -> int -> 'node) -> Scenario.t ->
    'node t list
  (** [init semantics fresh scenario] is the one initial state: node [i]
      is [fresh ~nodes i], the network is empty and fully connected. *)

  val with_node : 'node t -> int -> ('node -> 'node) -> 'node t
  val send : 'node t -> src:int -> dst:int -> Net.msg -> 'node t
  (** A send over a broken link is lost (see {!Spec_net.S.send}). *)

  val broadcast : 'node t -> src:int -> Net.msg -> 'node t
  (** {!send} to every other node, in id order. *)

  val raise_flag : 'node t -> string -> 'node t
  (** Record a violated action property (history-variable style). *)

  (** [include] this in a {!SYSTEM} instance. *)
  module State : sig
    module Net : Spec_net.S with type t = Net.t and type msg = Net.msg

    val nodes : 'node t -> 'node array
    val net : 'node t -> Net.t
    val counters : 'node t -> Counters.t
    val flags : 'node t -> string list
    val with_nodes : 'node t -> 'node array -> 'node t
    val with_net : 'node t -> Net.t -> 'node t
    val with_counters : 'node t -> Counters.t -> 'node t
  end
end

module type SYSTEM = sig
  val name : string
  (** Also the prefix of the skeleton's coverage branches:
      [name ^ "/crash"], ["/restart"], ["/partition"] and ["/heal"]. *)

  type node
  type state

  module Net : Spec_net.S

  (** {2 State access} *)

  val nodes : state -> node array
  val net : state -> Net.t
  val counters : state -> Counters.t
  val flags : state -> string list
  val with_nodes : state -> node array -> state
  val with_net : state -> Net.t -> state
  val with_counters : state -> Counters.t -> state

  (** {2 Spec constants} *)

  val default_requests : int
  (** The ["requests"] bound when the scenario names none. *)

  val default_buffer : int
  (** The ["buffer"] bound (longest link queue) when the scenario names
      none. *)

  (** {2 Node-level parts} *)

  val alive : node -> bool
  val is_leader : node -> bool
  (** Resolves a fault plan's [Leader]/[Followers]/[Isolate_leader]
      selectors: the lowest-numbered live node for which it holds. *)

  val handle_message : state -> dst:int -> src:int -> Net.msg -> state
  (** Delivery of a message already taken off the network. *)

  val timeouts : (string * (node -> bool) * (state -> int -> state)) list
  (** [(kind, enabled, fire)] in enumeration order: a live node fires every
      kind [enabled] at it, as [Timeout { node; kind }], from the state
      with the ["timeouts"] counter bumped. *)

  val accepts_client : node -> bool
  val client_ops : ((int -> string) * (state -> int -> int -> state)) list
  (** [(op, apply)] in enumeration order: [op v] is the operation's name in
      its [Client] event on workload value [v], and [apply st node v] runs
      it at [node] from the state with the ["requests"] counter bumped. *)

  val crash : nodes:int -> int -> node -> node
  (** [crash ~nodes i ns] is node [i]'s state after a crash in a cluster of
      [nodes]; the skeleton disconnects it from the network. *)

  val restart : node -> node
  (** The skeleton reconnects it. *)

  val permute_node : int array -> node -> node
  (** Rename every node id inside one node's state; the skeleton moves the
      node to its new slot. *)

  val permute_msg : (int array -> Net.msg -> Net.msg) option
  (** Rename the node ids inside an in-flight message, for protocols whose
      messages carry any ([None] leaves the queues' contents alone). *)

  val observe_node : node -> Tla.Value.t
  val observe_extra : state -> (string * Tla.Value.t) list
  (** Observed variables beyond [counters], [flags], [net] and [nodes], in
      name order between ["flags"] and ["net"]; usually [[]]. *)

  val pp_node : Format.formatter -> int -> node -> unit
  (** One line for node [i]. *)

  val pp_extra : Format.formatter -> state -> unit
  (** Lines printed between the nodes and the network summary. *)
end

module Make (S : SYSTEM) : sig
  val successors :
    Scenario.t -> S.state -> (Trace.event * (unit -> S.state)) list
  (** The enumeration: every enabling condition (liveness, budgets, the
      fault phase, the system's guards) decided here, every state — the
      handler's, the timeout's, the client operation's and {!Envgen}'s
      packet and failure successors — built when its thunk is called. *)

  val next : Scenario.t -> S.state -> (Trace.event * S.state) list
  (** [Spec.force (successors scenario state)]. *)

  val constraint_ok : Scenario.t -> S.state -> bool
  (** Every counter within its budget and no link queue longer than the
      ["buffer"] bound. *)

  val permute : int array -> S.state -> S.state
  val describe : S.state -> Trace.event -> string
  val observe : S.state -> Tla.Value.t
  val pp_state : Format.formatter -> S.state -> unit
end
(** The {!Spec.S} members a system gets from the skeleton; it adds
    [name], [init], [invariants], [permutable] and [node_key]. *)
