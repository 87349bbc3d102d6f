(** Compaction-aware replicated log.

    Indexes are 1-based. Entries up to [base_index] have been compacted into
    a snapshot whose last entry had term [base_term]; systems without log
    compaction keep [base_index = 0] forever. The value is immutable. *)

type t

val empty : t
val of_entries : Types.entry list -> t
(** Uncompacted log containing [entries] at indexes 1.. *)

val base_index : t -> Types.index
val base_term : t -> Types.term
val last_index : t -> Types.index
val last_term : t -> Types.term
(** Term of the last entry, or [base_term] when fully compacted, 0 when
    empty. *)

val length : t -> int
(** Number of live (uncompacted) entries. *)

val get : t -> Types.index -> Types.entry option
(** [None] when out of range or compacted away. *)

val term_at : t -> Types.index -> Types.term option
(** Like [get] but answers for index 0 (term 0) and the snapshot boundary
    ([base_index] → [base_term]). *)

val append : t -> Types.entry -> t

val entries_from : t -> Types.index -> Types.entry list
(** All live entries at indexes ≥ the argument. Empty if compacted. *)

val truncate_from : t -> Types.index -> t
(** Remove all entries at indexes ≥ the argument. *)

val matches : t -> prev_index:Types.index -> prev_term:Types.term -> bool
(** AppendEntries consistency check: does this log contain an entry (or
    snapshot boundary) at [prev_index] with [prev_term]? *)

val compact_to : t -> Types.index -> t
(** Snapshot all entries up to (and including) the given index. No-op when
    the index is at or below the current base. *)

val install_snapshot : last_index:Types.index -> last_term:Types.term -> t
(** A log consisting of just a received snapshot. *)

val entries : t -> (Types.index * Types.entry) list
(** Live entries with their indexes, ascending. *)

val is_prefix_consistent : t -> t -> bool
(** Log-matching: on every index both logs cover, the terms agree. *)

val hash : t -> int
(** A hash of the snapshot boundary and every live entry; equal logs hash
    equal. *)

val observe : t -> Tla.Value.t
val pp : Format.formatter -> t -> unit
