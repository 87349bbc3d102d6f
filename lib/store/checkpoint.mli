(** Durable checkpoints of an exploration, and resume.

    A checkpoint is the {!Sandtable.Explorer.snapshot} taken at a layer
    barrier, serialized with the {!Sandtable.Binio} wire format (section
    kind [4]) and written atomically into a run directory as
    [checkpoint.bin]. It stores only codec-friendly data — fingerprints,
    provenance, depths, counters — never marshalled spec states: on resume
    the concrete frontier states are recovered by replaying each frontier
    fingerprint's provenance chain from the initial states.

    Checkpoints are engine-agnostic within the rule their frontier mode
    sets. A [Layered] one — cut at a layer barrier by the sequential
    explorer or [Par_explorer] — resumes on any engine at any worker
    count, bit-for-bit on the strict-BFS engines. An [Unordered] one —
    cut at a work-stealing pulse — resumes only on [Ws_explorer]; the
    strict-BFS engines refuse it by name.

    {2 Generations}

    A checkpoint's section kind names its entry layout: kind [4] stores
    deliveries as bare [(src, dst, index)] addresses; kind [2], the
    previous generation, stored each with its message descriptor and is
    refused from the header alone, before any entry is decoded. A
    checkpoint ends with two markers: the
    {!Sandtable.Fingerprint.kernel_id} of its fingerprints, then its
    frontier mode. Files from older generations — kind [2], no markers,
    only the kernel marker, or another kernel — are refused by {!load}
    with {!Mismatch} naming what it found; they are not migrated.

    {2 Resume invariants}

    Resuming is only sound against the exact exploration the checkpoint was
    cut from, so every checkpoint embeds an {e identity string} — spec name,
    scenario, symmetry/deadlock/invariant configuration, bug flags — and
    {!load} raises {!Mismatch} when the caller's identity differs. Budget
    options ([max_states] / [max_depth] / [time_budget]) are deliberately
    {e excluded}: interrupting a run and resuming it with a different budget
    is the point of checkpointing. *)

exception Mismatch of string
(** Raised by {!load} when the stored identity differs from the caller's —
    the message shows both identity digests and the first differing line —
    or when the file comes from an older generation (e.g. "section kind 2,
    whose deliveries carry their message descriptor", "kernel 0, this
    build reads kernel 1"). *)

val file : string
(** ["checkpoint.bin"], relative to the run directory. *)

val identity :
  ?extra:(string * string) list ->
  Sandtable.Spec.t -> Sandtable.Scenario.t -> Sandtable.Explorer.options ->
  string
(** Canonical identity string for an exploration: spec name, scenario,
    the symmetry canonicalisation in force ([symmetry=keyed] for the
    key-sorted reduction of {!Sandtable.Symmetry}, [symmetry=false] when
    [opts.symmetry] is off or the spec is not permutable), a constant
    [stop_on_violation=true] line kept so existing run directories still
    resume, [check_deadlock], [only_invariants], plus any [extra]
    key/value pairs (e.g. bug flags), sorted. Budgets are excluded (see
    above). *)

val digest_hex : string -> string
(** Short stable hex digest of an identity string (for manifests and
    error messages). *)

type stats = {
  ck_depth : int;  (** layer the checkpoint was cut at *)
  ck_distinct : int;  (** visited-set entries written *)
  ck_frontier : int;  (** frontier fingerprints written *)
  ck_bytes : int;  (** file size *)
  ck_seconds : float;  (** wall time spent serializing + fsyncing *)
}

val save :
  ?probe:Sandtable.Probe.t -> dir:string -> identity:string ->
  Sandtable.Explorer.snapshot -> stats
(** Atomically (re)writes [dir ^ "/" ^ file]. The directory is created if
    missing. A crash mid-save leaves the previous checkpoint intact. With
    [probe], the write runs in a ["checkpoint"] span and bumps
    [checkpoint.saves] / [checkpoint.bytes]. *)

val load : dir:string -> identity:string -> Sandtable.Explorer.snapshot
(** Raises {!Mismatch} on identity divergence or an older generation,
    {!Sandtable.Binio.Corrupt} on a damaged file, [Sys_error] when
    absent. *)

val hook :
  ?probe:Sandtable.Probe.t ->
  dir:string -> identity:string -> every:int -> ?on_save:(stats -> unit) ->
  unit -> int -> Sandtable.Explorer.snapshot Lazy.t -> unit
(** [hook ~dir ~identity ~every ()] is an [on_layer] callback that saves a
    checkpoint whenever the layer index is a multiple of [every] (and
    forces the lazy snapshot only then). [every <= 0] never saves. *)
