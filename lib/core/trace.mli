(** System-agnostic node-level events and traces.

    SandTable explores interleavings of node-level events: message delivery,
    timeouts, client requests, crashes/restarts and network failures (paper
    §3.1). Events must carry enough identity to be replayed deterministically
    at the implementation level (§3.4): a delivery is addressed by
    [(src, dst, index)] where [index] selects a message in the src→dst buffer
    (always [0] under TCP semantics). *)

type node = int
(** Nodes are numbered [0 .. n-1]; rendered as ["n1"], ["n2"], ... *)

val node_name : node -> string

val link_name : node -> node -> string
(** [link_name src dst] is [node_name src ^ ">" ^ node_name dst], the key
    of the src→dst link in network observations. For small node counts
    both come from tables built at module initialisation, so neither
    allocates. *)

type event =
  | Deliver of { src : node; dst : node; index : int; desc : string }
      (** deliver message [index] of the src→dst buffer; [desc] is a
          human-readable message descriptor used in reports only *)
  | Timeout of { node : node; kind : string }
  | Client of { node : node; op : string }
  | Crash of { node : node }
  | Restart of { node : node }
  | Partition of { group : node list }
      (** isolate [group] from all other nodes *)
  | Heal
  | Drop of { src : node; dst : node; index : int }  (** UDP only *)
  | Duplicate of { src : node; dst : node; index : int }  (** UDP only *)

val equal_event : event -> event -> bool
(** Structural equality, ignoring the [desc] annotation of deliveries. *)

val kind : event -> string
(** Coarse event class, e.g. ["deliver"], ["timeout"]; used for the
    event-diversity heuristic of Algorithm 1. *)

val pp_event : Format.formatter -> event -> unit

type t = event list
(** A trace: the event sequence from the initial state. *)

val pp : Format.formatter -> t -> unit
(** Numbered, one event per line. *)

val to_string : t -> string

(** {2 Persistence}

    Events serialize to a line-oriented textual format so bug reproductions
    can be filed with reports and replayed later (the paper ships scripts to
    parse and convert traces, §4.1). Trace {e files} use the {!Binio}
    binary envelope: writes are atomic (temp file + rename) and a truncated
    or corrupted file is rejected with a clear error instead of yielding a
    silently shortened trace. *)

val serialize_event : event -> string
val parse_event : string -> (event, string) result

val encode_event : Binio.sink -> event -> unit
val decode_event : Binio.source -> event
(** Binary event codec, shared with the run-store checkpoint format.
    [decode_event] raises {!Binio.Corrupt} on malformed input. *)

val save : string -> t -> unit
(** Atomic: the file either keeps its previous contents or holds the
    complete new trace, never a partial write. *)

val save_text : string -> t -> unit
(** Companion human-readable file (one [serialize_event] line per event),
    written atomically; loadable via the legacy path of {!load}. *)

val load : string -> (t, string) result
(** Loads a {!save}d trace, or a legacy textual trace file (one
    [serialize_event] line per event). [Error] carries a description of the
    corruption, or the offending line for legacy files. *)
