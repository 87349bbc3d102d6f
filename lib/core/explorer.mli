(** Stateful breadth-first model checking (paper §3.3).

    BFS over the specification state space with fingerprint-based
    deduplication, optional symmetry reduction, invariant checking and
    counterexample reconstruction. Because search is breadth-first, the
    first violation found has minimal depth (§5.1.1).

    Every engine queues its unexpanded states in a {!Frontier}: each as
    the [No_sharing] bytes its own fingerprint marshalled, copied from the
    fingerprint arena when the state is found fresh and unmarshalled once,
    when it is expanded. With [options.spill] the frontier's chunks past
    the window go to disk, in every engine. *)

type provenance =
  | Root of int  (** index into the init-state list *)
  | Step of { parent : Fingerprint.t; event : Trace.event }
(** How a state was first discovered; chains of [Step] back to a [Root]
    reconstruct counterexample traces, and replay deterministically to the
    concrete state (the checkpoint/resume mechanism relies on this). *)

type frontier_mode =
  | Layered
      (** every frontier state sits at [snap_depth] — a strict-BFS layer
          barrier; resumable by any engine *)
  | Unordered
      (** frontier states carry heterogeneous depths (work-stealing
          quiescent point, [snap_depth] = their minimum; per-state depths
          live in the visited set). Only the work-stealing engine can
          resume it — strict-BFS engines refuse with a named error. *)
(** Which frontier discipline produced a snapshot. *)

type snapshot = {
  snap_depth : int;  (** the layer the frontier belongs to *)
  snap_frontier : Fingerprint.t list;  (** in BFS (sequential pop) order *)
  snap_distinct : int;
  snap_generated : int;
  snap_max_depth : int;
  snap_mode : frontier_mode;
  snap_visited : (Fingerprint.t -> provenance -> int -> unit) -> unit;
      (** iterate the visited set: fingerprint, provenance, depth. The
          iterator may stream over live or on-disk data — consume it
          immediately. Resume iterates it twice. *)
}
(** A quiescent-point image of an exploration. Taken via [on_layer],
    persisted by [Store.Checkpoint], and fed back through [check ~resume]
    to continue a run — bit-for-bit for [Layered] snapshots (frontier
    states are recovered by replaying their provenance chains, so
    snapshots contain only codec-friendly data). *)

type options = {
  symmetry : bool;  (** collapse node-permutation-equivalent states *)
  max_states : int option;  (** distinct-state budget *)
  max_depth : int option;
  time_budget : float option;  (** seconds *)
  only_invariants : string list option;
      (** restrict checking to these named invariants ([None] = all) *)
  progress_every : int;  (** 0 disables the callback *)
  progress : (stats -> unit) option;
  on_layer : (int -> snapshot Lazy.t -> unit) option;
      (** fired at every layer barrier (entering layer [d >= 1], before any
          of its states expand) with a lazy snapshot — forcing it costs a
          frontier + visited-set walk, so hooks should only force when they
          actually persist (e.g. every k layers) *)
  spill : Frontier.spill option;
      (** the frontier's disk tier ([--spill-window]): [None] keeps every
          queued state in memory. Every engine honours it; exploration
          order does not depend on it *)
  probe : Probe.t option;
      (** observability hook ([None] = zero-cost off): phase spans
          (expand / fingerprint / symmetry-normalize / invariant), counters
          ([fp.dup], [symmetry.candidates]) and one {!Probe.layer} record per
          BFS layer barrier *)
}

and stats = {
  distinct : int;
  generated : int;
  depth : int;
  frontier_len : int;  (** states queued but not yet expanded *)
  elapsed : float;
}

val default : options

type violation = {
  invariant : string;
  events : Trace.t;  (** minimal-depth trace from the initial state *)
  labels : string list;
      (** each event's label ({!Spec.S.describe} at the state it leaves),
          rendered by the replay that recovers the violating state *)
  depth : int;
  state_repr : string;  (** pretty-printed violating state *)
}

type outcome =
  | Exhausted  (** full coverage of the constrained space *)
  | Violation of violation
  | Budget_spent  (** stopped by max_states / max_depth / time_budget *)

type result = {
  outcome : outcome;
  distinct : int;
  generated : int;
  max_depth : int;  (** deepest layer reached *)
  duration : float;
}

(** The exploration core shared by every engine: per-state fingerprinting
    ({!arrive}), the arrival and barrier reports, and the one place that
    turns visited-set provenance into states, traces and verdicts. The
    sequential engine is {!check}; the parallel engines ([Par.Par_explorer],
    [Par.Ws_explorer]) keep only their frontier discipline and store, and
    call these for the rest. Per-state stage timing lives in two
    functions: {!arrive} (fingerprint and canonicalisation) and
    {!report_arrival} (invariants). *)
module Run (S : Spec.S) : sig
  type cache
  (** One worker's orbit cache ({!Symmetry.cache}), or nothing when the run
      does not canonicalise. Single-domain: one per worker, per run. *)

  val cache : options -> cache
  (** Allocates the orbit cache only when the run canonicalises
      ([opts.symmetry && S.permutable]). *)

  type 'r arrival =
    | Recalled of bool
        (** the worker's orbit cache knew the state: a duplicate, with the
            profiler's [sym] flag; the visited set was not touched *)
    | Inserted of Fingerprint.t * bool * 'r
        (** the visited-set fingerprint, the [sym] flag and what [insert]
            returned *)

  val arrive :
    ?probe:Probe.t -> cache -> Scenario.t -> S.state ->
    insert:(Fingerprint.t -> 'r) -> 'r arrival
  (** Offer a state to the visited set. The state's visited-set
      fingerprint is the symmetry-canonical one
      ({!Symmetry.canonicalise} keyed by [S.node_key]) when the worker has
      a cache, else its plain one. With a cache: a state whose own
      fingerprint the cache recalls is [Recalled] without canonicalising
      or calling [insert]; otherwise it is canonicalised, [insert]ed, and
      only then remembered. [sym] is true when canonicalisation changed
      the fingerprint. With [probe]: one span per arrival, covering its own
      fingerprint and any canonicalisation — [symmetry-normalize] when it
      was canonicalised, [fingerprint] otherwise — and [fp.bytes] and
      [symmetry.candidates] counts that are the same whether the cache
      hit or not. *)

  val hit_ratio : cache list -> float option
  (** Share of these workers' canonicalising arrivals that were
      [Recalled] ([None] when the run does not canonicalise). It depends
      on the schedule at more than one worker: a gauge, never a counter. *)

  val cache_gauge : Probe.t option -> cache list -> unit
  (** Publish {!hit_ratio} as the [symmetry.cache_hit_ratio] gauge. *)

  type lookup = Fingerprint.t -> provenance option
  (** An engine's visited set, keyed by fingerprint ([None] = absent). *)

  val replay_step : Scenario.t -> S.state -> Trace.event -> S.state
  (** {!Spec.step} — the single replay step behind every recovery below.
      Raises [Invalid_argument] naming an "unreplayable provenance chain"
      when [S.next] offers no such event (the spec changed since the chain
      was recorded). *)

  val violation :
    lookup -> Scenario.t -> Fingerprint.t -> string -> depth:int -> violation
  (** [violation lookup scenario fp name ~depth]: the counterexample for
      invariant [name] broken by [fp]'s state — its trace, walked back
      through provenance to a root, replayed to recover that state
      (pretty-printed) and each event's label. *)

  val rebuild_frontier :
    lookup -> Scenario.t -> Fingerprint.t list -> S.state list
  (** Recover a checkpointed frontier's concrete states by replaying each
      provenance chain from the initial states, memoized so every state is
      computed once. Raises [Invalid_argument] naming a fingerprint
      "missing from its visited set", or an unreplayable chain. *)

  val restore :
    snapshot -> Scenario.t -> lookup ->
    add:(Fingerprint.t -> Fp_store.prov -> depth:int -> 'a) ->
    find:(Fingerprint.t -> int option) ->
    set_prov:(int -> Fp_store.prov -> depth:int -> unit) ->
    (S.state * int) list
  (** Seed an engine's empty store from a snapshot, then recover the
      frontier. Every engine resumes through it. A snapshot may list a
      child before its parent, so seeding takes two passes: [add] every
      entry, then [set_prov] each one's provenance by its entry reference
      ([find]), a step's parent by the parent's reference. [lookup] must
      read the same store. Returns the frontier's states
      ({!rebuild_frontier}) with their entry references, in snapshot
      order. Raises [Invalid_argument] naming a fingerprint "missing from
      its visited set", or an unreplayable chain. *)

  type reports
  (** One run's reporting state: its options, scenario, invariants
      ([S.invariants] restricted to [opts.only_invariants]), store reader,
      start time, and the [distinct] count at which progress last fired. *)

  val reports :
    options -> Scenario.t -> resume:snapshot option ->
    store:(unit -> int * int * int * int) -> started:float -> reports
  (** [store] reads the visited set for {!visited_gauges}. Progress
      counts from the resumed snapshot's [snap_distinct], or from 0. *)

  val report_arrival :
    reports -> Probe.t option -> S.state -> prov:Fp_store.prov -> depth:int ->
    dup:bool -> sym:bool -> string option
  (** The arrival report: one arrival's outcome, reported to [probe] (the
      worker's) the same way in every engine. A duplicate ([dup]) counts
      [fp.dup] and its profile edge, and returns [None]. A fresh state
      gets its profile edge, then its invariants run inside one timed
      [invariant] span; returns the first it breaks. [prov] names the
      edge: a root or its parent's event. Allocates nothing when the probe
      is off and every invariant holds. *)

  val report_barrier :
    reports -> layer:int -> depth:int -> distinct:int -> generated:int ->
    frontier:int -> resident:int -> spilled:int -> snapshot Lazy.t -> unit
  (** The barrier report, for a layer barrier, the sequential engine's
      terminal record or a work-stealing pulse. In order: the visited
      ({!visited_gauges}) and frontier ({!frontier_gauges}, [resident] and
      [spilled] bytes) gauges; {!Probe.layer}; a progress tick, which
      fires [opts.progress] when [distinct] has crossed a multiple of
      [opts.progress_every] since it last fired; and [opts.on_layer
      layer snapshot] when [frontier] is non-empty. The sequential
      engine's per-state progress check is the same tick. *)

  val seed_roots :
    reports -> cache -> lookup ->
    insert:(Fingerprint.t -> int -> int option) ->
    ((S.state * int) list, violation) Stdlib.result
  (** The sharded engines' roots. Offers each initial state, in order,
      through {!arrive} to [insert fp i] ([i] its init index; [Some r] =
      inserted as entry reference [r]), and reports each through
      {!report_arrival} at depth 0. Stops at the first inserted root that
      breaks an invariant, with its depth-0 [Error] violation; else [Ok]
      the inserted roots that satisfy the state constraint, with their
      references, in init order. *)

  val refuse_unordered : snapshot option -> unit
  (** Raises [Invalid_argument] naming the mode when resuming an
      [Unordered] snapshot — the strict-BFS engines' guard. *)

  val count_fault_kinds :
    Probe.t option -> Scenario.t -> (Trace.event * S.state) list -> unit
  (** Count a successor list's fault events per {!Fault_plan.obs_kind}.
      A no-op unless the probe is on and the scenario has a fault plan. *)

  val with_disk : options -> (Frontier.disk option -> 'a) -> 'a
  (** Run an engine with the run's disk tier open ([opts.spill]), closing
      it however the engine ends. *)

  val frontier_gauges : Probe.t option -> resident:int -> spilled:int -> unit
  (** Publish the [frontier.bytes] (resident) and
      [frontier.spilled_bytes] gauges, at a layer barrier or a pulse. *)

  val visited_gauges :
    ?final:bool -> Probe.t option -> (unit -> int * int * int * int) -> unit
  (** Publish the [visited.entries/capacity/store_bytes] gauges from a
      store reader returning (entries, capacity, bytes, probe steps);
      [~final:true] adds [visited.bytes_per_state] and
      [visited.probe_steps]. The reader runs only when the probe is on. *)
end

val check : ?resume:snapshot -> Spec.t -> Scenario.t -> options -> result
(** [check ?resume spec scenario opts] — with [resume], exploration
    continues from the snapshot instead of the initial states and is
    bit-for-bit identical to the uninterrupted run from that point on
    (same distinct/generated counters, same outcome, same counterexample).
    The caller is responsible for resuming with the same spec, scenario and
    options the snapshot was taken under ([Store.Checkpoint] enforces this
    with an identity hash, and refuses checkpoints from older format
    generations). Resuming an [Unordered] snapshot raises
    [Invalid_argument] naming the mode mismatch — the sequential engine
    cannot restore the layer invariant; use the work-stealing engine. *)

val pp_result : Format.formatter -> result -> unit

type stateless_result = {
  sl_executions : int;  (** traces enumerated *)
  sl_states_visited : int;  (** state visits including repeats *)
  sl_distinct : int;  (** distinct fingerprints among them *)
  sl_duration : float;
}

val stateless_dfs :
  Spec.t -> Scenario.t -> max_depth:int -> ?max_visits:int -> unit ->
  stateless_result
(** Ablation baseline: stateless trace enumeration to [max_depth] without a
    visited set, quantifying the redundant re-exploration a stateless DMCK
    pays (§2.1). *)
