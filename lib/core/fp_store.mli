(** The visited set: an open-addressed fingerprint table in
    structure-of-arrays layout.

    Linear probing over a power-of-two slot array (load factor <= 3/4);
    entries live in dense append-only columns. An entry is 24 bytes: two
    63-bit fingerprint halves, a 32-bit predecessor reference and a 32-bit
    meta word (depth in the low 20 bits, provenance code in the high 12);
    a slot is 4 bytes (entry index + 1). {!store_bytes} is exactly
    [4 * capacity + 24 * room]. The slot array and the columns are
    [Bigarray]s outside the OCaml heap: the major GC neither marks them
    nor grows its heap for them. Entry indices are stable (growth rehashes
    only the slot array), so a parent is one int and iteration in
    discovery order is free. Events are interned structurally and
    referenced by id. Single-domain: the sequential explorer owns one, and
    [Par.Shard_set] keeps 64 behind per-shard locks. This module is the
    only code that probes, grows, interns and lays out visited-set
    columns.

    The 32-bit words bound a store. Each bound raises [Invalid_argument]
    naming it, before any entry is written: at most [2{^31} - 1] entries, a
    [Pstep] reference in [\[0, 2{^31})], a [Proot] index below 4096, at
    most 4096 distinct events, and a depth below [2{^20}]. *)

type t

type prov =
  | Proot of int  (** index into the init-state list *)
  | Pstep of int * Trace.event
      (** predecessor reference (in [\[0, 2{^31})]), discovering event.
          The store never interprets the reference: the sequential
          explorer uses the predecessor's entry index, [Par.Shard_set] a
          packed (index, shard). *)

type add_result = Fresh of int | Dup of int

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536 slots) is rounded up to a power of two. *)

val add : t -> Fingerprint.t -> prov -> depth:int -> add_result
(** Insert, or report the existing entry's index. A fresh insert raises
    [Invalid_argument] past any of the store's bounds (above), e.g. if
    [depth >= 2{^20}] (a BFS that deep is a bug). *)

val set_prov : t -> int -> prov -> depth:int -> unit
(** [set_prov t e prov ~depth] rewrites entry [e]'s provenance and depth —
    the one way to change an entry. Used by the strict-BFS merge when a
    smaller discovery position displaces the stored one, and by resume,
    which inserts every checkpoint entry before it knows any parent's
    reference. Raises [Invalid_argument] if [e] is not an entry, or if
    [prov] or [depth] is outside the store's bounds. *)

val find : t -> Fingerprint.t -> int option
val length : t -> int

(** Entry reads. Each raises [Invalid_argument], naming the index, when
    it is outside [\[0, length)]. *)

val fp : t -> int -> Fingerprint.t
val prov : t -> int -> prov
val depth : t -> int -> int

val iter : t -> (int -> Fingerprint.t -> prov -> int -> unit) -> unit
(** In insertion (= discovery) order. *)

val iter_sorted : t -> (int -> Fingerprint.t -> prov -> int -> unit) -> unit
(** Like {!iter}, in {!Fingerprint.compare} order: an order that does not
    depend on which entry was inserted first. *)

val capacity : t -> int
(** Current slot-array length. *)

val room : t -> int
(** Current length of the entry columns: the entries that fit before they
    next grow. Columns a caller keeps alongside, by entry index, mirror
    it. *)

val store_bytes : t -> int
(** Exact bytes held by the off-heap slot array and entry columns:
    [4 * capacity t + 24 * room t] (excludes the interned-event values). *)

val probe_steps : t -> int
(** Cumulative linear-probe steps beyond the home slot, over all lookups
    and inserts — a cheap health measure of the hash distribution. *)
