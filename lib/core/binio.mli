(** Compact binary serialization for durable artefacts (lib/store).

    A hand-rolled, endian-stable wire format — deliberately {e not}
    [Marshal]: files written on one OCaml version/architecture load on any
    other, and every read is bounds-checked so corrupted or truncated files
    fail with a clear {!Corrupt} error instead of yielding garbage.

    Integers use LEB128 varints (zigzag for signed values); fixed-width
    fields are little-endian. Whole files are wrapped in an envelope —
    magic, format version, section kind, payload length, FNV-1a checksum —
    and written atomically (temp file + rename), so a crash mid-write never
    leaves a half-valid file behind.

    Section kinds in use: [3] trace files ({!Trace.save}), [4] run
    checkpoints ([Store.Checkpoint]). Kinds [1] and [2] are their previous
    generation, whose deliveries carried a message descriptor; readers
    refuse them by name, before decoding any entry. *)

exception Corrupt of string
(** Raised by every reader on malformed input; the message says what was
    expected and what was found. *)

(** {2 Writing} *)

type sink
(** An append-only byte accumulator: in memory ({!sink}), or streaming
    to the file {!write_file} is writing. *)

val sink : unit -> sink
(** An in-memory sink: it keeps every byte, for {!contents}. *)

val contents : sink -> string
(** The bytes appended to an in-memory sink. Raises [Invalid_argument] on
    {!write_file}'s sink, whose bytes are in its file. *)

val u8 : sink -> int -> unit
(** Low byte of the argument. *)

val uint : sink -> int -> unit
(** LEB128 varint. Negative values are encoded as their 63-bit two's
    complement pattern (9 bytes); prefer {!zint} for signed data. *)

val zint : sink -> int -> unit
(** Zigzag-encoded signed varint: small magnitudes stay small. *)

val f64 : sink -> float -> unit
(** IEEE-754 bits, little-endian. *)

val str : sink -> string -> unit
(** Length-prefixed bytes. *)

val fixed : sink -> string -> unit
(** Raw bytes, no length prefix (reader must know the width). *)

(** {2 Reading} *)

type source
(** A bounds-checked cursor over an immutable byte string. *)

val of_string : string -> source
val read_u8 : source -> int
val read_uint : source -> int
val read_zint : source -> int
val read_f64 : source -> float
val read_str : source -> string
val read_fixed : source -> int -> string
val remaining : source -> int

(** {2 File envelope} *)

val format_version : int

val write_file : string -> kind:int -> (sink -> unit) -> unit
(** [write_file path ~kind fill] writes magic/version/kind, the payload
    produced by [fill], its length and checksum — to a temp file in
    [path]'s directory, then renames over [path] (atomic on POSIX). The
    sink [fill] writes to flushes to the temp file every 64 KiB, keeping a
    running checksum, so the payload is never whole in memory; the length
    field goes out as zero and is written over once [fill] returns. If
    [fill] raises, the temp file is removed and [path] is left as it
    was. *)

val read_file : string -> kind:int -> source
(** Validates the envelope and returns a source over the payload, in place
    in the file's bytes (offsets in later {!Corrupt} messages count from
    the start of the file). Raises {!Corrupt} on bad magic, unsupported
    version, wrong kind, truncation or checksum mismatch; [Sys_error] if
    the file cannot be read. *)

val section_kind : string -> int option
(** The section kind in the header of the file at this path, read without
    validating the rest: [None] for unreadable files and files that do not
    start with the envelope magic. Lets a reader name an older generation
    before {!read_file} rejects it as the wrong kind. *)

val atomic_write : string -> (out_channel -> unit) -> unit
(** Temp-file + rename for non-envelope files (e.g. JSON manifests). *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode [0o755]); a
    directory that already exists, or that another process creates
    meanwhile, is not an error. *)
