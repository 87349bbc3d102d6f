(** Layer-synchronous parallel BFS over OCaml 5 domains.

    Each BFS layer (all states at one depth, in sequential discovery order)
    is partitioned into contiguous chunks across a fixed domain pool; workers
    expand their chunk against the shared {!Shard_set}, then barrier. Because
    no layer [d+1] state is expanded before every layer [d] state, the first
    violating layer is minimal — the §5.1.1 minimal-depth counterexample
    guarantee of the sequential explorer is preserved.

    Stronger still, results are {e bit-for-bit} those of
    [Sandtable.Explorer.check] for any worker count: the store keeps each
    state's minimal (depth, trace-order) discovery position, so ties between
    same-layer violations break by trace order, counterexample provenance
    chains equal the sequential ones, and on a violation or deadlock the
    reported [distinct]/[generated]/[max_depth] are reconstructed to the
    values sequential BFS would have reported when it stopped mid-layer.
    The only intentional divergences: [max_states] and [time_budget] are
    enforced at layer (not state) granularity, and [progress] fires at layer
    boundaries. *)

type worker_stat = {
  w_expanded : int;  (** frontier states this worker expanded *)
  w_generated : int;  (** successor states it generated *)
  w_inserted : int;  (** distinct states it was first to insert *)
  w_busy : float;  (** seconds spent inside layer chunks *)
  w_cache_hit_ratio : float option;
      (** share of its arrivals its orbit cache recalled ([None] when the
          run does not canonicalise) *)
}

type result = {
  base : Sandtable.Explorer.result;
      (** outcome and counters, sequential-equivalent *)
  workers : int;
  layers : int;  (** BFS layers expanded *)
  worker_stats : worker_stat array;
  shard_stats : Shard_set.stat array;
}

val check :
  ?workers:int -> ?pool:Pool.t -> ?resume:Sandtable.Explorer.snapshot ->
  Sandtable.Spec.t -> Sandtable.Scenario.t -> Sandtable.Explorer.options ->
  result
(** [check ~workers spec scenario opts] — [workers] defaults to
    [Domain.recommended_domain_count ()]; pass [~pool] to reuse an existing
    pool across runs (then [workers] is ignored).

    [opts.on_layer] fires at every inter-layer barrier; [resume] continues
    from such a snapshot bit-for-bit (checkpoints are engine- and
    worker-count-agnostic: a sequential checkpoint resumes under any [-j]
    and vice versa). *)

val states_per_sec : worker_stat -> float

val pp_worker_stats : Format.formatter -> worker_stat array -> unit
(** One line per worker; shared by both parallel engines. *)
