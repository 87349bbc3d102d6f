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
  | Deliver of { src : node; dst : node; index : int }
      (** deliver message [index] of the src→dst buffer. Its human-readable
          label is not part of the event: {!Spec.S.describe} renders it
          from the state the delivery leaves, where a report reads it. *)
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
(** Structural equality, written out per constructor (no polymorphic
    compare on the replay path). *)

val kind : event -> string
(** Coarse event class, e.g. ["deliver"], ["timeout"]; used for the
    event-diversity heuristic of Algorithm 1. *)

(** {2 Rendering}

    A label ({!Spec.S.describe}, e.g. a delivery's message descriptor) is
    appended after a space when it is not empty. *)

val pp_labelled_event : string -> Format.formatter -> event -> unit
val pp_event : Format.formatter -> event -> unit
(** Without a label. *)

type t = event list
(** A trace: the event sequence from the initial state. *)

val pp_labelled : string list -> Format.formatter -> t -> unit
(** Numbered, one event per line, the [i]th label after the [i]th event
    (missing labels are empty). *)

val pp : Format.formatter -> t -> unit
(** {!pp_labelled} without labels. *)

val to_string : t -> string

(** {2 Persistence}

    Trace {e files} use the {!Binio} binary envelope: writes are atomic
    (temp file + rename) and a truncated or corrupted file is rejected with
    a clear error instead of yielding a silently shortened trace. A
    line-oriented text rendering goes beside it for people to read (the
    paper ships scripts to parse and convert traces, §4.1). *)

val serialize_event : ?label:string -> event -> string
(** One line of the text rendering, e.g. ["deliver 0 1 0 RV(t1,l0:0)"]. *)

val encode_event : Binio.sink -> event -> unit
val decode_event : Binio.source -> event
(** Binary event codec, shared with the run-store checkpoint format.
    [decode_event] raises {!Binio.Corrupt} on malformed input. *)

val save : string -> t -> unit
(** Atomic: the file either keeps its previous contents or holds the
    complete new trace, never a partial write. *)

val save_text : string -> labels:string list -> t -> unit
(** Companion human-readable file (one labelled [serialize_event] line per
    event), written atomically. Only {!save} files load back. *)

val load : string -> (t, string) result
(** Loads a {!save}d trace. [Error] names what was found instead: a text
    file, a trace of the previous generation (section kind 1, whose
    deliveries carried their descriptor), or the corruption. *)
