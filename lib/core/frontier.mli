(** The exploration frontier, kept compact: every engine's queue of states
    still to expand.

    TLC keeps its unexpanded states serialised; so does this. An entry is a
    state's [No_sharing] marshalled bytes, the ones {!Fingerprint.of_state}
    has just written for the fresh state's own fingerprint, behind a header
    holding its visited-set entry reference and its depth. A push copies
    those bytes ({!push}) and a pop is one [Marshal.from_bytes], so the
    queued states are neither promoted to nor marked by the major GC and
    take their marshalled size, not their heap size. An unmarshalled state
    shares no memory with any global value, which is why fingerprints are
    taken over [No_sharing] bytes.

    Entries live in fixed-size chunks, char [Bigarray]s outside the OCaml
    heap; an entry larger than a chunk gets a chunk of its own. A frontier
    is FIFO over a ring of chunks: the sequential engine pushes and pops
    entries, the strict-BFS engine reads a layer by index
    ({!iter_states}) and builds the next one by filtering its workers'
    arrivals into it ({!transfer}), and each work-stealing queue is pushed
    into by its worker and hands out whole chunks — a batch is a chunk —
    at either end ({!take_chunk}).

    {b Disk tier.} With a {!disk}, once more than the window of entries is
    resident, the chunk that has just closed is written to a file as it is,
    with a header (magic, entry count, byte length, and a digest under the
    fingerprint kernel), and read back unchanged when it is next needed.
    The chunk being popped and the chunk being filled stay in memory.
    Exploration order does not depend on the tier; only memory does. A
    chunk file that does not match its header raises [Binio.Corrupt]
    naming it. Operations that may read or write a chunk file take the
    calling worker's [probe], for the ["spill-io"] span and the
    [spill.chunk_writes], [spill.chunk_reads], [spill.items_spilled] and
    [spill.bytes_written] counters.

    A frontier is single-domain; the work-stealing engine guards each
    queue with a lock. *)

type spill = {
  window : int;  (** resident entries before chunks go to disk (min 2) *)
  dir : string option;
      (** where chunk files go; [None] = a fresh directory under the
          system temp dir, removed on {!close_disk} *)
}
(** The [--spill-window] setting ({!Explorer.options}[.spill]). *)

type disk
(** One run's disk tier: its directory, shared by all its frontiers. *)

val open_disk : spill -> disk
(** Create the directory if missing and take ownership of its chunk
    files: any [*.spill] file already there (left by a killed run) is
    removed. *)

val close_disk : disk -> unit
(** Remove the directory's chunk files, and the directory itself when
    {!open_disk} created it. *)

val window : disk -> int
(** The resident-entry window the tier was opened with (at least 2). *)

type 's t
(** A frontier of ['s] states. *)

val create :
  ?disk:disk -> ?window:int -> ?batch:int -> ?chunk_bytes:int -> unit -> 's t
(** An empty frontier whose chunks are [chunk_bytes] long (default 1 MiB,
    at least 64); it keeps the last chunk buffer it is done with as a
    spare for its next chunk. With [disk], chunks spill once more than
    [window] (default {!window}[ disk]) entries are resident, and a chunk
    holds at most [window / 2] entries. [batch] caps the entries per
    chunk further. *)

val push : ?probe:Probe.t -> 's t -> entry:int -> depth:int -> unit
(** Queue the state whose bytes are in this domain's own fingerprint
    arena ({!Fingerprint.last_marshal}): the fresh state just
    fingerprinted, provided nothing was marshalled on this domain since.
    [entry] is its visited-set reference ([>= 0]); [depth < 2{^20}]. *)

val push_bytes :
  ?probe:Probe.t -> 's t -> entry:int -> depth:int -> Bytes.t -> int -> unit
(** Queue the marshalled state at the given offset of a buffer (copied;
    the buffer is not kept). *)

val push_state : ?probe:Probe.t -> 's t -> entry:int -> depth:int -> 's -> unit
(** Marshal a state and queue it (roots and resumed frontiers). *)

val pop : ?probe:Probe.t -> 's t -> ('s * int * int) option
(** The oldest entry: its state, entry reference and depth. *)

val length : 's t -> int

val iter : 's t -> (int -> int -> unit) -> unit
(** [iter t f]: [f entry depth] in queue order, reading headers only
    (never unmarshalling a state). *)

val iter_states :
  ?probe:Probe.t -> 's t -> lo:int -> hi:int ->
  (int -> int -> int -> 's -> unit) -> unit
(** [iter_states t ~lo ~hi f]: [f index entry depth state] for the
    entries at queue positions [lo .. hi-1] of a frontier that is never
    popped, unmarshalling only those. Read-only: several domains may read
    disjoint ranges at once. *)

val transfer :
  ?probe:Probe.t -> 's t -> into:'s t -> keep:(int -> int -> bool) -> unit
(** [transfer t ~into ~keep] empties a frontier that is never popped,
    oldest chunk first: the entry at queue position [k] with reference
    [entry] is copied, bytes and depth, to the end of [into] when [keep k
    entry]. Each chunk of [t] is released once walked, so the two hold
    about one frontier's bytes between them. *)

val close : 's t -> unit
(** Drop every entry and delete its chunk files. *)

val resident_bytes : 's t -> int
(** Bytes of the chunks held in memory, the spare aside (the
    [frontier.bytes] gauge). *)

val spilled_bytes : 's t -> int
(** Bytes of entries in chunk files. *)

(** {2 Whole chunks} — the work-stealing engine's batches. A frontier used
    this way is never popped. *)

type 's chunk

val take_chunk : ?probe:Probe.t -> 's t -> back:bool -> 's chunk option
(** Remove the oldest chunk, or the newest with [~back:true], reading it
    back from disk if it was spilled. *)

val chunks : 's t -> int
(** Chunks in the frontier: past one, all but the newest are closed. *)

val chunk_iter : 's chunk -> (int -> int -> 's -> unit) -> unit
(** [f entry depth state] over a chunk's entries, in order. *)
