(** State fingerprints for stateful exploration.

    A fingerprint is a 126-bit digest of the marshalled state value,
    represented as two native 63-bit ints — no heap allocation per
    fingerprint. States must be pure data (no closures, no mutation after
    hashing). The kernel is a non-cryptographic two-lane multiply–rotate
    mix (xxhash64 family) over a reusable domain-local marshal arena:
    zero-copy (no intermediate string) and allocation-free on the hot
    path. Collision probability at 10{^9} states is ~10{^-11} — weaker
    than the old MD5 digest's ~10{^-20} but still far below TLC's 64-bit
    fingerprint guarantees, at a fraction of the cost per byte.

    Each domain has two arenas. {!of_state} marshals into its own, which
    then holds the state's [No_sharing] bytes until the next {!of_state}
    on that domain: {!Frontier} queues a fresh state by copying them
    ({!last_marshal}) rather than marshalling it again. Symmetry's
    non-identity candidates go through {!of_candidate} into the second
    arena, so canonicalising a state leaves its own bytes in place. *)

type t = private { hi : int; lo : int }
(** Two 63-bit halves. The representation is exposed (read-only) so the
    visited stores can keep fingerprints in unboxed [int array] columns;
    use {!of_parts} to rebuild one from stored halves. *)

val kernel_id : int
(** Identifies the hash kernel ([1]; [0] was the MD5 digest). Persisted in
    checkpoints; one written under another kernel is refused by name. *)

val of_state : ?who:string -> 'a -> t
(** [of_state ?who state] digests the marshalled [state]. If the state
    contains unmarshallable values (closures, lazy thunks), raises
    [Invalid_argument] with a message naming the offending spec [who]. *)

val of_candidate : ?who:string -> 'a -> t
(** {!of_state} through the domain's second arena, leaving the bytes of
    the last {!of_state} in place: for symmetry candidates, which are
    never queued. *)

val last_marshal : unit -> Bytes.t
(** This domain's own arena. Its prefix is the marshalled state of the
    last {!of_state} on the domain ([Marshal.total_size] gives its
    length), valid until the next one; the caller copies, never keeps,
    it. *)

val of_bytes : Bytes.t -> int -> t
(** The kernel over the first [n] bytes of a buffer (the frontier's chunk
    digests). *)

val of_parts : hi:int -> lo:int -> t
(** Rebuild a fingerprint from halves previously read off {!t} (the
    visited stores' SoA columns). No validation — halves are opaque. *)

val marshalled_bytes : unit -> int
(** Total bytes marshalled into this domain's two arenas since they were
    created (feeds the [fp.bytes] metric; deltas are per-domain exact). *)

val to_hex : t -> string
(** 32 lowercase hex characters (the {!to_raw} bytes). *)

val to_raw : t -> string
(** 16-byte little-endian codec used by the checkpoint format: bytes 0–7
    are [hi], bytes 8–15 are [lo]. [of_raw (to_raw fp) = fp]. *)

val of_raw : string -> t
(** Inverse of {!to_raw}. Total over 16-byte strings: bit 63 of each half
    is dropped, so a foreign 128-bit digest (an MD5-era checkpoint)
    decodes to some value instead of failing mid-file — the checkpoint
    reader then refuses the file by its kernel marker. Raises
    [Invalid_argument] unless the input is exactly 16 bytes. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val bucket_hash : t -> int
(** Full-word (62-bit, non-negative) bucket hash mixing both halves; what
    {!Tbl} and the open-addressed visited stores probe with. Uses disjoint
    bits from {!shard_key}. *)

module Tbl : Hashtbl.S with type key = t

val shard_key : t -> mask:int -> int
(** [shard_key fp ~mask] selects a shard index from the top bits of [hi]
    ([mask] must be [2{^k}-1], [k <= 16]). Those bits never reach the low
    bits of {!bucket_hash}, so per-shard tables stay uniformly filled. *)
