(** Reader behind [sandtable stats <run-dir>]: loads the artefacts the
    directory holds — [manifest.json], [metrics.json], [events.ndjsonl],
    [profile.json] — and pretty-prints a summary. Each artefact is
    optional (a live or killed run has written neither metrics nor
    profile yet), but one that is present must decode: {!load} fails on
    the first that does not, naming it — a manifest of another format
    version included — and when none of manifest, metrics and events is
    there. Also hosts the run-vs-run diff behind [stats --compare] and the
    live tail behind [stats --follow]. *)

type t = {
  rp_dir : string;
  rp_manifest : Store.Manifest.t option;
  rp_metrics : Store.Sjson.t option;  (** parsed [metrics.json] *)
  rp_events : Store.Sjson.t list option;
  rp_profile : Profile.summary option;  (** parsed [profile.json] *)
}

val load : string -> (t, string) result
val pp : Format.formatter -> t -> unit

(** {2 Run-vs-run comparison} — [stats --compare A B]. *)

type cmp_row = { cr_label : string; cr_a : float option; cr_b : float option }
(** One aligned metric; a hole means that run lacks the artefact (or the
    key — e.g. an event kind only one run ever expanded). *)

type comparison = {
  cmp_a : string;
  cmp_b : string;
  cmp_scalars : cmp_row list;
      (** states/s, distinct, generated, duplicates, dup ratio, skew,
          plus steal counters when either run recorded them *)
  cmp_events : cmp_row list;  (** duplicate hits per attribution key *)
  cmp_depths : cmp_row list;  (** distinct states per depth *)
  cmp_rate_drop_pct : float option;
      (** how much slower B ran than A, percent (negative = faster) *)
  cmp_dup_rise_pp : float option;
      (** B's duplicate ratio minus A's, percentage points *)
  cmp_rate_refusals : string list;
      (** one message per run whose throughput no gate may judge: its
          manifest records fewer cores than workers, or it has no
          manifest to say; {!regressions} refuses to gate throughput on
          such rows *)
}

val compare_runs : string -> string -> (comparison, string) result
(** [compare_runs a b] loads both run directories and aligns their
    metrics, A's ordering first. Fails when either directory fails
    {!load}; missing individual artefacts become holes. *)

val pp_comparison : Format.formatter -> comparison -> unit

val regressions :
  ?fail_rate_pct:float -> ?fail_dup_pp:float -> comparison -> string list
(** Human-readable regression verdicts, empty when B is within bounds.
    [fail_rate_pct] trips when B's states/s dropped more than that percent
    below A's; [fail_dup_pp] when B's duplicate ratio rose more than that
    many percentage points. A threshold given against a run missing the
    needed artefact is itself a failure (a gate that silently passes on
    absent data is no gate), and a throughput threshold against a run
    whose manifest shows fewer cores than workers, or that has no
    manifest, is refused by name — oversubscribed rows measure the OS
    scheduler, not the engine. *)

(** {2 Live tail} — [stats --follow]. *)

val follow : dir:string -> (string -> unit) -> (unit, string) result
(** Print the [layer] records of [events.ndjsonl] as fixed-width lines,
    then poll it for growth until the manifest leaves [Running]; partial
    trailing lines are retried next poll. Waits up to ~60s for the log to
    appear. Errors if no log ever appears, or with {!Store.Manifest.load}'s
    message as soon as a present manifest does not load. *)
