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
    reference, exactly as the sequential store stores an entry index, in
    the store's 32-bit predecessor word. The reference's bit budget is 31
    bits, 6 for the shard and 25 for the index: a shard holds at most
    [2{^25}] entries, and inserting one more raises [Invalid_argument]
    naming that bound. References are stable (entries never move or go
    away). {!find_prov_opt}
    and {!iter} turn a parent reference back into the parent's
    fingerprint, so {!Sandtable.Explorer.provenance}, checkpoints and
    traces are the same as the sequential engine's. {!set_prov}, {!fp},
    {!depth}, {!find_pos} and {!arrival} raise [Invalid_argument], naming
    the reference, when it names no entry.

    The strict-BFS merge also keeps, for each entry of the layer being
    built, the {e slot} of its winning arrival: an int in [\[0, 2{^31})]
    the engine chose to name where it keeps that arrival's state (its
    worker's frontier and the position in it), stored in 32 bits beside
    the 63-bit discovery position. The states themselves never enter the
    set.

    Locking: every operation holds one shard lock at a time, and never a
    second one — resolving a parent in another shard releases the first
    lock before taking the other. {!iter} runs only at quiescent points. *)

type t

type stat = {
  s_entries : int;  (** distinct fingerprints stored in the shard *)
}

type merge_outcome =
  | Fresh of int  (** the fingerprint was new; the new entry's reference *)
  | Dup_kept  (** already present, and the stored entry kept its place *)
  | Dup_replaced of {
      entry : int;
      old_event : Sandtable.Trace.event option;
      old_depth : int;
    }
      (** already present, but the new [(depth, pos)] was strictly smaller
          and displaced the stored entry, whose reference is [entry];
          [old_event]/[old_depth] identify the displaced discovering edge
          ([None] = a root) so the caller can re-attribute it as the
          duplicate it turned out to be *)

val create : unit -> t

val add_seed :
  t -> Sandtable.Fingerprint.t -> Sandtable.Fp_store.prov -> depth:int ->
  int option
(** Insert if absent (first arrival wins), returning the new entry's
    reference; [None] when the fingerprint was already present. For roots,
    checkpoint-resume seeding, and the work-stealing engine, which never
    merges. A [Pstep] names its parent by reference. *)

val merge :
  t -> Sandtable.Fingerprint.t -> prov:Sandtable.Fp_store.prov -> depth:int ->
  pos:int * int -> slot:int -> merge_outcome
(** [merge t fp ~prov ~depth ~pos ~slot] atomically inserts a layer
    candidate ([Fresh]), or — if the fingerprint is already present —
    replaces the stored provenance, depth, position and arrival slot
    (together) iff the new [(depth, pos)] is strictly smaller
    ([Dup_replaced]), else leaves it ([Dup_kept]). Keeping the minimal
    discovery position makes provenance chains, violation choice and
    early-stop accounting coincide with sequential BFS regardless of
    worker count; replacing the slot with the provenance keeps it naming
    the state the stored chain replays to (under symmetry reduction two
    distinct concrete states can share a fingerprint). Only [merge]
    allocates the position and slot side columns; an entry {!add_seed}
    inserted has position [(0, 0)] and slot [-1]. [pos = (p, j)] must
    satisfy [0 <= j < 2{^31}]; depth must be [< 2{^20}]; a slot outside
    [\[0, 2{^31})] raises [Invalid_argument] naming the bound. *)

val find : t -> Sandtable.Fingerprint.t -> int option
(** The entry's reference; [None] when absent. *)

val set_prov : t -> int -> Sandtable.Fp_store.prov -> depth:int -> unit
(** {!Sandtable.Fp_store.set_prov} on the referenced entry (resume's
    second pass). *)

val fp : t -> int -> Sandtable.Fingerprint.t
(** The referenced entry's fingerprint. *)

val depth : t -> int -> int
(** The referenced entry's discovery depth. *)

val find_prov_opt :
  t -> Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance option
(** The entry's provenance, its parent named by fingerprint — the lookup
    the shared recovery helpers of {!Sandtable.Explorer.Run} walk. [None]
    when absent. Safe while other domains insert (the work-stealing
    engine builds a violation's trace without stopping its workers). *)

val find_pos : t -> int -> int * int
(** The discovery position {!merge} stored for the referenced entry. *)

val arrival : t -> int -> int
(** The slot the referenced entry's winning {!merge} arrival recorded;
    [-1] when it has none. *)

val length : t -> int
(** Total distinct fingerprints. *)

val iter :
  t ->
  (Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance -> int -> unit) ->
  unit
(** Iterate every entry — fingerprint, provenance (parent by
    fingerprint), depth — shard by shard, in no particular order. Only at
    a quiescent point (the strict engine's layer barrier, the
    work-stealing pulse, or after the run), where no domain writes the
    set: it takes no lock, so [f] may call back into the set. Used for
    checkpoint snapshots. *)

val capacity : t -> int
(** Total slot-array length across shards. *)

val store_bytes : t -> int
(** Exact bytes held by the slot arrays, entry columns and side columns
    across shards (excluding interned events): each shard's
    {!Sandtable.Fp_store.store_bytes}, plus 12 bytes per entry of room
    once the strict merge has grown its side columns. *)

val probe_steps : t -> int
(** Cumulative linear-probe steps beyond the home slot across shards. *)

val stats : t -> stat array
