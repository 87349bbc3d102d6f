(** The parallel engines' visited set: 64 {!Sandtable.Fp_store}s, each
    behind its own mutex.

    The TLC analogue is the shared fingerprint set its BFS workers
    deduplicate against. Fingerprints are partitioned across the shards by
    their high bits ({!Sandtable.Fingerprint.shard_key} — disjoint from
    the in-shard bucket bits), so concurrent inserts contend only 1/64 of
    the time. Every probe, growth, event interning and column layout is
    the shard's [Fp_store]; this module adds only shard routing and
    locking, the strict-BFS [(depth, pos)] merge, and the translation of
    parent references back to fingerprints.

    An entry is named by one int {e reference} that packs its shard and
    its index in that shard's store; a step's parent is stored as its
    reference, exactly as the sequential store stores an entry index.
    References are stable (entries never move or go away). {!find_prov_opt}
    and {!iter} turn a parent reference back into the parent's
    fingerprint, so {!Sandtable.Explorer.provenance}, checkpoints and
    traces are the same as the sequential engine's.

    Locking: every operation holds one shard lock at a time, and never a
    second one — resolving a parent in another shard releases the first
    lock before taking the other. {!iter} runs only at quiescent points. *)

type 's t
(** ['s] is the spec's concrete state type, held only for entries of the
    layer currently being built (see {!merge} / {!take_state}). *)

type stat = {
  s_entries : int;  (** distinct fingerprints stored in the shard *)
}

type merge_outcome =
  | Fresh of int  (** the fingerprint was new; the new entry's reference *)
  | Dup_kept  (** already present, and the stored entry kept its place *)
  | Dup_replaced of {
      old_event : Sandtable.Trace.event option;
      old_depth : int;
    }
      (** already present, but the new [(depth, pos)] was strictly smaller
          and displaced the stored entry; [old_event]/[old_depth] identify
          the displaced discovering edge ([None] = a root) so the caller
          can re-attribute it as the duplicate it turned out to be *)

val create : unit -> 's t

val add_seed :
  's t -> Sandtable.Fingerprint.t -> Sandtable.Fp_store.prov -> depth:int ->
  int option
(** Insert if absent (first arrival wins), returning the new entry's
    reference; [None] when the fingerprint was already present. For roots,
    checkpoint-resume seeding, and the work-stealing engine, which never
    merges. A [Pstep] names its parent by reference. *)

val merge :
  's t -> Sandtable.Fingerprint.t -> prov:Sandtable.Fp_store.prov ->
  depth:int -> pos:int * int -> state:'s -> merge_outcome
(** Atomically insert a layer candidate ([Fresh]), or — if the fingerprint
    is already present — replace the stored provenance, depth, position
    and state (together) iff the new [(depth, pos)] is strictly smaller
    ([Dup_replaced]), else leave it ([Dup_kept]). Keeping the minimal
    discovery position makes provenance chains, violation choice and
    early-stop accounting coincide with sequential BFS regardless of
    worker count; replacing state and provenance together keeps the stored
    state the one the stored chain replays to (under symmetry reduction
    two distinct concrete states can share a fingerprint). Only [merge]
    allocates the position and state side columns; an entry {!add_seed}
    inserted has position [(0, 0)] and no state. [pos = (p, j)] must
    satisfy [0 <= j < 2{^31}]; depth must be [< 2{^20}]. *)

val find : 's t -> Sandtable.Fingerprint.t -> int option
(** The entry's reference; [None] when absent. *)

val set_prov : 's t -> int -> Sandtable.Fp_store.prov -> depth:int -> unit
(** {!Sandtable.Fp_store.set_prov} on the referenced entry (resume's
    second pass). *)

val fp : 's t -> int -> Sandtable.Fingerprint.t
(** The referenced entry's fingerprint. *)

val depth : 's t -> int -> int
(** The referenced entry's discovery depth. *)

val find_prov_opt :
  's t -> Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance option
(** The entry's provenance, its parent named by fingerprint — the lookup
    the shared recovery helpers of {!Sandtable.Explorer.Run} walk. [None]
    when absent. Safe while other domains insert (the work-stealing
    engine builds a violation's trace without stopping its workers). *)

val find_pos : 's t -> int -> int * int
(** The discovery position {!merge} stored for the referenced entry. *)

val take_state : 's t -> int -> ((int * int) * 's) option
(** Return the referenced entry's position and concrete state and clear
    the stored state (bounding resident states to one layer); [None] if
    it has none or it was already taken. *)

val length : 's t -> int
(** Total distinct fingerprints. *)

val iter :
  's t ->
  (Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance -> int -> unit) ->
  unit
(** Iterate every entry — fingerprint, provenance (parent by
    fingerprint), depth — shard by shard, in no particular order. Only at
    a quiescent point (the strict engine's layer barrier, the
    work-stealing pulse, or after the run), where no domain writes the
    set: it takes no lock, so [f] may call back into the set. Used for
    checkpoint snapshots. *)

val capacity : 's t -> int
(** Total slot-array length across shards. *)

val store_bytes : 's t -> int
(** Exact bytes held by the slot arrays, entry columns and side columns
    across shards (excluding interned events and layer-local states). *)

val probe_steps : 's t -> int
(** Cumulative linear-probe steps beyond the home slot across shards. *)

val stats : 's t -> stat array
