(** Domain-local metric collectors and their deterministic merge.

    Each worker owns one {!collector} and is the only domain that touches
    it, so the hot reporting path (counter bumps, completed spans) takes
    no locks. A {!merge} at a quiescent point (layer barrier, end of run)
    folds the collectors {e in worker order} and sorts every family by
    name — the resulting {!summary} does not depend on domain scheduling,
    and for the deterministic engines the counter values are identical at
    every worker count. *)

type gauge = { mutable g_last : float; mutable g_max : float }
type timer = { mutable tm_count : int; mutable tm_total : float }

type collector

val create_collector : unit -> collector
val create_collectors : workers:int -> collector array

(** {2 Per-worker operations} — call only from the owning domain. *)

val add_count : collector -> string -> int -> unit
val set_gauge : collector -> string -> float -> unit

val add_timer : collector -> string -> float -> unit
(** One completed span of [dur] seconds: a timer counts its spans and sums
    their durations. *)

(** {2 Quiescent reads} — snapshot one worker's collector {e while its
    domain is parked} (layer barrier, end of run). The telemetry sampler
    uses these from the coordinator to compute per-worker deltas between
    barriers; calling them while the owner is mutating is a race. *)

val counter_of : collector -> string -> int
(** 0 when absent. *)

val timer_total_of : collector -> string -> float
(** Total seconds; 0 when absent. *)

val gauge_last_of : collector -> string -> float option

(** {2 Merged view} *)

type summary = {
  s_counters : (string * int) list;  (** summed, sorted by name *)
  s_gauges : (string * gauge) list;
      (** max-of-max; last = latest in worker order *)
  s_timers : (string * timer) list;  (** counts and totals summed *)
}

val merge : collector array -> summary

val counter : summary -> string -> int
(** 0 when absent. *)

val timer_total : summary -> string -> float
(** Total seconds, 0 when absent. *)

val to_json : summary -> Store.Sjson.t
