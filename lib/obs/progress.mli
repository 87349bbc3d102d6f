(** Shared progress-line formatting for [--progress-every] reporting —
    check, simulate and conform all render through {!line} so the stderr
    shape (including rate and elapsed time) is uniform across commands. *)

val rate : count:int -> elapsed:float -> float
(** [count / elapsed], 0 when no time has passed. *)

val eta : count:int -> total:int -> elapsed:float -> float option
(** Seconds until [count] reaches [total] at the observed rate; [None]
    when the rate is zero or the total already reached. *)

val line :
  label:string -> unit_name:string -> count:int -> ?total:int -> ?depth:int ->
  ?generated:int -> ?frontier:int -> elapsed:float -> unit -> string
(** E.g. [line ~label:"check[toy/n2]" ~unit_name:"distinct" ~count:1234
    ~depth:5 ~generated:4567 ~frontier:89 ~elapsed:0.8 ()] →
    ["check[toy/n2]: depth 5, 1234 distinct, 4567 generated, frontier 89,
      1542 distinct/s, 0.8s"]. With [total] (a budget-derived state bound,
    e.g. [--max-states]) the line also carries percent-complete and an
    ETA extrapolated from the observed rate. *)

val eprint :
  label:string -> unit_name:string -> count:int -> ?total:int -> ?depth:int ->
  ?generated:int -> ?frontier:int -> elapsed:float -> unit -> unit
(** {!line} to stderr with a flush (safe to call from worker domains —
    each line is one write). *)

(** {2 Cadence} — what [--progress-every] and [--telemetry-every]
    accept. *)

type cadence =
  | Never
  | Every_states of int
      (** every N counted units, e.g. ["5000"]: distinct states (walks,
          rounds) for progress lines, barriers for telemetry samples *)
  | Every_seconds of float  (** wall-clock, e.g. ["2s"], ["0.5s"] *)

val parse_cadence : string -> (cadence, string) result
(** [""] and ["0"] → [Never]. *)

val states_granularity : cadence -> int
(** The count granularity to hand the engines' [progress_every] option: the
    count itself for {!Every_states}, a fine fixed step for
    {!Every_seconds} (the {!make_throttle} gate then drops ticks until the
    interval has passed), 0 for [Never]. *)

val make_throttle : cadence -> unit -> bool
(** A stateful gate for the progress callback: always [true] for
    count-based cadences, true at most once per interval for
    {!Every_seconds}. *)
