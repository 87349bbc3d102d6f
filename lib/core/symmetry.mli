(** Symmetry reduction (paper §3.3): permuting node identities does not
    change whether an action satisfies an invariant, so states equal up to a
    node permutation collapse into one canonical representative.

    The representative is the minimal fingerprint over a {e candidate set}
    of permutations: those that stably sort the nodes by a per-node [key]
    (scalarset normalisation, Ip & Dill), trying every order inside each
    block of tied keys. For an equivariant key ({!Spec.S.node_key}) the
    candidate set of [permute q s] is that of [s] renamed by [q], so the
    minimum is the same for every member of an orbit, and it is always the
    fingerprint of some permutation of [s], so distinct orbits stay
    distinct: the reduction is exactly as strong as minimising over all
    [n!] permutations, at [∏ (tie block size)!] fingerprints per state
    instead of [n!]. *)

val permutations : int -> int array list
(** All permutations of [0 .. n-1]; the identity comes first. *)

val canonical_fp :
  ?probe:Probe.t -> ?who:string -> ?key:('s -> int -> int) ->
  permute:(int array -> 's -> 's) -> nodes:int -> 's -> Fingerprint.t
(** Minimal fingerprint over the candidate permutations of the state.
    [key] defaults to a constant, whose single tie block makes every
    permutation a candidate (the plain all-permutations minimum). [permute]
    must not keep its permutation array, which is reused across
    candidates. [who] names the spec in fingerprinting error messages.
    Safe to call from concurrent domains. With [probe], counts the
    fingerprinted permutations ([symmetry.candidates]); the count depends
    only on the state's orbit, so it is the same at every worker count. *)

val canonicalise :
  ?probe:Probe.t -> ?who:string -> key:('s -> int -> int) ->
  permute:(int array -> 's -> 's) -> nodes:int -> own:Fingerprint.t -> 's ->
  Fingerprint.t * bool * int
(** [canonicalise ~key ~permute ~nodes ~own s] is {!canonical_fp} of a
    state whose own fingerprint [own] is already known — it stands in for
    the identity candidate instead of marshalling [s] again. Also returns
    the profiler's [sym] flag (the canonical fingerprint differs from
    [own], i.e. [s] was not already canonical) and the number of
    fingerprinted candidates, which it also counts into [probe]
    ([symmetry.candidates]). *)

(** {2 Orbit cache}

    Canonicalising a successor costs a few marshal-and-hash passes, yet
    most successors are exact repeats of a concrete state generated
    earlier. An exploration worker keeps a cache of the concrete states it
    has canonicalised {e and} whose orbit it has already offered to the
    visited set, keyed by their own (unpermuted) fingerprint: a repeat is
    then known to be a duplicate from one plain fingerprint. The cache is
    direct-mapped with [2{^14}] entries, each holding the own fingerprint
    and what its canonicalisation reported (the [sym] flag, the candidate
    count and the marshalled bytes), and lives off the OCaml heap. It is
    single-domain: one per worker. *)

type cache

val cache : unit -> cache
(** An empty cache (allocates its 384 KiB of entries). *)

val recall : ?probe:Probe.t -> cache -> Fingerprint.t -> bool option
(** [recall cache own]: [Some sym] when the cache holds a canonicalisation
    of a state whose own fingerprint is [own] — that canonicalisation's
    [symmetry.candidates] and [fp.bytes] counts are then replayed into
    [probe], so counters read as if it had run again. [None] on a miss. *)

val remember :
  cache -> Fingerprint.t -> sym:bool -> candidates:int -> bytes:int -> unit
(** Record a canonicalisation under the state's own fingerprint, evicting
    whatever shared its entry. Call it only once the state's orbit is in
    the visited set: a later {!recall} treats the state as a duplicate.
    [bytes] is what the canonicalisation marshalled (its [fp.bytes]). *)

val hit_ratio : cache list -> float option
(** Share of {!recall}s that hit, over the given caches ([None] before any
    lookup). Schedule-dependent at more than one worker: report it as a
    gauge, never as a counter. *)
