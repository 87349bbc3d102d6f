(** Reusable specification-level network modules with TCP and UDP semantics
    (paper §3.1 "Specifying environment actions" and §4.2).

    TCP: reliable ordered per-link queues; no loss, duplication or
    reordering; the only failure is network partition, which breaks crossing
    connections and discards in-flight messages until healed. UDP: messages
    may additionally be dropped, duplicated, or delivered out of order.

    Values are immutable: every operation returns a new network. *)

module type MSG = sig
  type t

  val describe : t -> string
  (** Short human-readable form: the label of a delivery of this message. *)

  val observe : t -> Tla.Value.t
end

type semantics = Tcp | Udp

(** A network over messages of type [msg]. *)
module type S = sig
  type msg
  type t

  val create : nodes:int -> semantics -> t
  val nodes : t -> int
  val semantics : t -> semantics

  val connected : t -> int -> int -> bool
  (** Link usable in both directions; self-links are never connected. *)

  val send : t -> src:int -> dst:int -> msg -> t * bool
  (** Enqueue a message. Returns [false] (network unchanged) when the link is
      down: under TCP the sender observes the send failure; under UDP the
      packet is silently lost. *)

  val deliverable : t -> (int * int * int * msg) list
  (** All [(src, dst, index, msg)] delivery choices: index 0 of each
      non-empty queue under TCP, every index under UDP. *)

  val peek : t -> src:int -> dst:int -> index:int -> msg option

  val describe : t -> Trace.event -> string
  (** The label of an event taken from this network: the message module's
      [describe] of the message a [Deliver] would take ({!peek} at its
      address), [""] for every other event. A spec's [S.describe] is this
      on its network. *)

  val deliver : t -> src:int -> dst:int -> index:int -> (msg * t) option
  val drop : t -> src:int -> dst:int -> index:int -> t option
  (** UDP only: silently lose the packet. *)

  val duplicate : t -> src:int -> dst:int -> index:int -> t option
  (** UDP only: re-enqueue a copy of the packet at the tail. *)

  val queue : t -> src:int -> dst:int -> msg list
  val queue_len : t -> src:int -> dst:int -> int
  val max_queue_len : t -> int
  val total_in_flight : t -> int

  val partition : t -> group:int list -> t
  (** Disconnect every link crossing the [group] boundary and discard
      crossing in-flight messages. *)

  val heal : t -> t
  (** Reconnect all links (crashed nodes must be reconnected explicitly). *)

  val disconnect_node : t -> int -> t
  (** Node crash: break all its connections, discard its traffic. *)

  val reconnect_node : t -> int -> t
  val fully_connected : t -> bool

  val map_queues : (msg -> msg) -> t -> t

  val permute : int array -> t -> t
  val observe : t -> Tla.Value.t
end

module Make (M : MSG) : S with type msg = M.t
