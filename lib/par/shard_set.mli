(** The parallel explorer's visited set: a sharded, mutex-guarded
    fingerprint store in structure-of-arrays layout.

    The TLC analogue is the shared fingerprint set its BFS workers
    deduplicate against. Fingerprints are partitioned across [N]
    independent shards by their high bits
    ({!Sandtable.Fingerprint.shard_key} — disjoint from the in-shard
    bucket bits), so concurrent inserts contend only 1/N of the time. Each
    shard is an open-addressed slot array (linear probing, load <= 3/4)
    over dense [int] entry columns — fingerprint halves, packed
    depth/provenance, parent fingerprint halves, packed discovery position
    — behind its own mutex: no per-entry boxing, and nothing but the
    layer-local concrete states for the GC to trace. Events are interned
    per shard. Provenance is {!Sandtable.Explorer.provenance}, whose
    parents are fingerprints, so shards stay fully independent. The
    sequential analogue is [Sandtable.Fp_store]. *)

type 's t
(** ['s] is the spec's concrete state type, held only for entries of the
    layer currently being built (see {!merge} / {!take_state}). *)

type stat = {
  s_entries : int;  (** distinct fingerprints stored in the shard *)
  s_hits : int;  (** dedup hits: inserts that found an existing entry *)
}

type merge_outcome =
  | Fresh  (** the fingerprint was new; the entry was inserted *)
  | Dup_kept  (** already present, and the stored entry kept its place *)
  | Dup_replaced of { old_event : Sandtable.Trace.event option; old_depth : int }
      (** already present, but the new [(depth, pos)] was strictly smaller
          and displaced the stored entry; [old_event]/[old_depth] identify
          the displaced discovering edge ([None] = a root) so the caller
          can re-attribute it as the duplicate it turned out to be *)

val create : ?shards:int -> unit -> 's t
(** [create ~shards ()] with [shards] rounded up to a power of two
    (default 64, max 65536). *)

val shard_count : 's t -> int

val merge :
  's t -> Sandtable.Fingerprint.t -> prov:Sandtable.Explorer.provenance ->
  depth:int -> pos:int * int -> state:'s -> merge_outcome
(** Atomically insert a layer candidate ([Fresh]), or — if the fingerprint
    is already present — replace the stored provenance, depth, position
    and state (together) iff the new [(depth, pos)] is strictly smaller
    ([Dup_replaced]), else leave it ([Dup_kept]). Keeping the minimal
    discovery position makes provenance chains, violation choice and
    early-stop accounting coincide with sequential BFS regardless of
    worker count; replacing state and provenance together keeps the stored
    state the one the stored chain replays to (under symmetry reduction
    two distinct concrete states can share a fingerprint). [pos = (p, j)]
    must satisfy [0 <= j < 2{^31}]; depth must be [< 2{^20}]. *)

val add_seed :
  's t -> Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance ->
  depth:int -> bool
(** Insert if absent (the existing entry always wins, counting a dedup
    hit otherwise), with no stored state and position zero — for roots,
    checkpoint-resume seeding, and the work-stealing engine's first-wins
    insertions, whose positions are never consulted again. *)

val find_prov_opt :
  's t -> Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance option
(** The entry's provenance — the lookup the shared recovery helpers of
    {!Sandtable.Explorer.Run} walk. [None] when absent. *)

val find_pos : 's t -> Sandtable.Fingerprint.t -> int * int
(** The stored discovery position. Raises [Not_found] when absent. *)

val find_depth_opt : 's t -> Sandtable.Fingerprint.t -> int option
(** The stored discovery depth; [None] when absent. Used to recover
    per-state frontier depths when resuming into the work-stealing
    engine. *)

val take_state : 's t -> Sandtable.Fingerprint.t -> ((int * int) * 's) option
(** Return the entry's position and concrete state and clear the stored
    state (bounding resident states to one layer); [None] if the
    fingerprint is absent or its state was already taken. *)

val mem : 's t -> Sandtable.Fingerprint.t -> bool

val length : 's t -> int
(** Total distinct fingerprints (locks each shard once). *)

val iter :
  's t ->
  (Sandtable.Fingerprint.t -> Sandtable.Explorer.provenance -> int -> unit) ->
  unit
(** Iterate every entry — fingerprint, provenance, depth — shard by shard
    (each shard locked while its entries are visited; [f] must not
    re-enter the set). Order is arbitrary. Used for barrier-point
    checkpoint snapshots. *)

val capacity : 's t -> int
(** Total slot-array length across shards. *)

val store_bytes : 's t -> int
(** Exact bytes held by the slot arrays and entry columns across shards
    (excluding interned events and layer-local states). *)

val probe_steps : 's t -> int
(** Cumulative linear-probe steps beyond the home slot across shards. *)

val stats : 's t -> stat array
val pp_stats : Format.formatter -> 's t -> unit
