(** Exploration-shape profiler: where generated states and duplicate hits
    go.

    Fed one record per BFS discovery edge through the probe's [s_edge]
    hook; each worker owns a private accumulator (same no-lock discipline
    as {!Metrics}), and {!summarize} merges them deterministically at the
    end of the run — sums commute and both output families are sorted. All
    totals, the per-depth split and the per-event {e expansion} counts are
    identical at every worker count (they are facts about the state
    graph). The per-event {e duplicate} split is exact in the strict-BFS
    engines at every worker count: when several same-layer edges race to
    one new fingerprint, the eventual winner is the minimal-(depth, pos)
    edge — the same one sequential BFS keeps — and each displacement
    re-attributes the loser via {!fix}, so exactly the k-1 non-minimal
    arrivals of a k-contested fingerprint count as duplicates. Under the
    work-stealing engine the per-event duplicate rows are first-arrival
    attributed (totals remain exact and -j-invariant; the per-event split
    can vary with schedule, since discovery order is unordered there).

    The summary answers the questions [sandtable stats] and the regression
    gate care about: how discovery splits per depth (distinct vs duplicate
    vs symmetry-canonicalized), which event kind — keyed by node or
    node-pair — generates the redundancy, and how evenly edge work spread
    over workers. The reconciliation identity
    [p_distinct = p_roots + p_generated - p_duplicates] matches the
    engines' own counters exactly (tested on every registered system). *)

val file : string
(** ["profile.json"], relative to the run directory. *)

type t

val create : workers:int -> t

val edge :
  t -> worker:int -> depth:int -> event:Sandtable.Trace.event option ->
  dup:bool -> sym:bool -> unit
(** One discovery edge; call only from the owning worker's domain.
    [event = None] marks an init-state root. *)

val fix :
  t -> worker:int -> depth:int -> event:Sandtable.Trace.event option -> unit
(** Re-attribute an edge previously reported fresh as a duplicate (the
    minimal-(depth, pos) merge displaced its entry). Increments only the
    duplicate tallies for [depth] and [event]; the edge itself was already
    counted by {!edge}. Call from the displacing worker's domain. *)

type depth_row = {
  pd_depth : int;
  pd_roots : int;  (** init states discovered at this depth (depth 0) *)
  pd_generated : int;  (** successor edges generated into this depth *)
  pd_duplicates : int;  (** edges whose fingerprint was already visited *)
  pd_sym : int;
      (** edges where symmetry canonicalization changed the fingerprint —
          each is a state the reduction collapsed *)
}

type event_row = {
  pe_key : string;  (** e.g. ["deliver n1>n2"], ["crash n3"], ["heal"] *)
  pe_kind : string;  (** coarse class: ["deliver"], ["timeout"], … *)
  pe_expansions : int;
  pe_duplicates : int;
}

type summary = {
  p_roots : int;
  p_generated : int;
  p_distinct : int;
  p_duplicates : int;
  p_by_depth : depth_row list;  (** depth ascending, contiguous from 0 *)
  p_by_event : event_row list;  (** deterministic key order *)
  p_dup_top_source : string option;
      (** the [pe_key] with the most duplicate hits; [None] when the run
          saw no duplicates *)
  p_worker_edges : int list;  (** edges recorded per worker, worker order *)
  p_peak_worker_skew_pct : float;
      (** how far the busiest worker's edge count sits above the mean, in
          percent; 0 for single-worker runs *)
}

val summarize : t -> summary

val write : dir:string -> summary -> unit
(** Atomic write of [dir ^ "/" ^ file]. *)

val load : dir:string -> (summary, string) result
(** Fails closed: [version] must be 1, every top-level and row field is
    required, and [distinct = roots + generated - duplicates] must hold.
    [Error] names the file and the first field (and row) that is missing
    or ill-typed. *)

val pp : Format.formatter -> summary -> unit
