(** The visited set: an open-addressed fingerprint table in
    structure-of-arrays layout.

    Linear probing over a power-of-two slot array (load factor <= 3/4);
    entries live in dense append-only [int] columns — fingerprint halves,
    packed depth + provenance code, predecessor reference — so a visited
    state costs ~6–8 words with no per-entry boxing, versus ~14 for the old
    hashtable of records. Entry indices are stable (growth rehashes only
    the slot array), so a parent is one int and iteration in discovery
    order is free. Events are interned structurally and referenced by id.
    Single-domain: the sequential explorer owns one, and [Par.Shard_set]
    keeps 64 behind per-shard locks. This module is the only code that
    probes, grows, interns and lays out visited-set columns. *)

type t

type prov =
  | Proot of int  (** index into the init-state list *)
  | Pstep of int * Trace.event
      (** predecessor reference (non-negative), discovering event. The
          store never interprets the reference: the sequential explorer
          uses the predecessor's entry index, [Par.Shard_set] a packed
          (index, shard). *)

type add_result = Fresh of int | Dup of int

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536 slots) is rounded up to a power of two. *)

val add : t -> Fingerprint.t -> prov -> depth:int -> add_result
(** Insert, or report the existing entry's index. Raises
    [Invalid_argument] if [depth >= 2{^20}] (a BFS that deep is a bug). *)

val set_prov : t -> int -> prov -> depth:int -> unit
(** [set_prov t e prov ~depth] rewrites entry [e]'s provenance and depth —
    the one way to change an entry. Used by the strict-BFS merge when a
    smaller discovery position displaces the stored one, and by resume,
    which inserts every checkpoint entry before it knows any parent's
    reference. Raises [Invalid_argument] if [e] is not an entry. *)

val find : t -> Fingerprint.t -> int option
val length : t -> int
val fp : t -> int -> Fingerprint.t
val prov : t -> int -> prov
val depth : t -> int -> int

val iter : t -> (int -> Fingerprint.t -> prov -> int -> unit) -> unit
(** In insertion (= discovery) order. *)

val capacity : t -> int
(** Current slot-array length. *)

val room : t -> int
(** Current length of the entry columns: the entries that fit before they
    next grow. Columns a caller keeps alongside, by entry index, mirror
    it. *)

val store_bytes : t -> int
(** Exact bytes held by the slot array and entry columns (excludes the
    interned-event values, which both old and new layouts share). *)

val probe_steps : t -> int
(** Cumulative linear-probe steps beyond the home slot, over all lookups
    and inserts — a cheap health measure of the hash distribution. *)
