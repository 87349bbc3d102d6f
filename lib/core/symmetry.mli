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

val canonical_fp_info :
  ?probe:Probe.t -> ?who:string -> ?key:('s -> int -> int) ->
  permute:(int array -> 's -> 's) -> nodes:int -> 's -> Fingerprint.t * bool
(** Like {!canonical_fp}, also reporting whether the canonical fingerprint
    differs from the state's own — i.e. the state was {e not} already in
    canonical form. The profiler attributes duplicate hits on such states
    to symmetry reduction. When the identity is not a candidate the state
    is not key-sorted and the flag is [true]; with [probe] attached that is
    confirmed by fingerprinting the state itself. *)
