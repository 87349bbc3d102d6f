type sut = {
  execute : Trace.event -> (unit, string) result;
  observe : unit -> Tla.Value.t;
}

type failure =
  | State_mismatch of Tla.Value.diff list
  | Impl_error of string

type discrepancy = {
  round : int;
  events : Trace.t;
  labels : string list;
  failed_at : int;
  failure : failure;
}

type report = {
  rounds_run : int;
  total_events : int;
  discrepancy : discrepancy option;
  duration : float;
}

let pp_failure ppf = function
  | State_mismatch diffs ->
    Fmt.pf ppf "state mismatch:@,%a"
      (Fmt.list ~sep:Fmt.cut Tla.Value.pp_diff)
      diffs
  | Impl_error msg -> Fmt.pf ppf "implementation error: %s" msg

let pp_discrepancy ppf d =
  Fmt.pf ppf "@[<v>round %d, event %d (%a):@,%a@,trace:@,%a@]" d.round
    (d.failed_at + 1)
    (Trace.pp_labelled_event
       (Option.value ~default:"" (List.nth_opt d.labels d.failed_at)))
    (List.nth d.events d.failed_at)
    pp_failure d.failure (Trace.pp_labelled d.labels) d.events

let pp_report ppf r =
  match r.discrepancy with
  | None ->
    Fmt.pf ppf "conformance OK: %d rounds, %d events, %.2fs" r.rounds_run
      r.total_events r.duration
  | Some d ->
    Fmt.pf ppf "@[<v>conformance FAILED after %d rounds (%.2fs):@,%a@]"
      r.rounds_run r.duration pp_discrepancy d

let replay ~mask ~boot scenario events observations =
  let sut = boot scenario in
  let rec step i events observations =
    match events, observations with
    | [], [] -> None
    | event :: events', expected :: observations' -> (
      match sut.execute event with
      | Error msg -> Some (i, Impl_error msg)
      | Ok () ->
        let actual = sut.observe () in
        match Tla.Value.diff ~expected:(mask expected) ~actual with
        | [] -> step (i + 1) events' observations'
        | diffs -> Some (i, State_mismatch diffs))
    | _ -> invalid_arg "Conformance: observations out of sync with events"
  in
  step 0 events observations

let run ?(mask = Fun.id) ?(walk_depth = 30) ?time_budget ?probe
    ?(progress_every = 0) ?progress spec ~boot scenario ~rounds ~seed =
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) time_budget in
  let walk_opts = { Simulate.max_depth = walk_depth; purpose = Conform } in
  (* round [r] replays walk [r - 1] of the seed's stream, generated here and
     dropped once replayed *)
  let next_walk round =
    Simulate.walk ?probe spec scenario walk_opts
      (Simulate.rng_for ~seed (round - 1))
  in
  let tick round total_events =
    if progress_every > 0 && round mod progress_every = 0 then
      Option.iter (fun f -> f round total_events) progress
  in
  let rec loop round total_events =
    let expired =
      match deadline with
      | Some t -> Unix.gettimeofday () > t
      | None -> false
    in
    if round > rounds || expired then
      { rounds_run = round - 1;
        total_events;
        discrepancy = None;
        duration = Unix.gettimeofday () -. started }
    else
      let walk = next_walk round in
      let t0 = Probe.now probe in
      let outcome =
        replay ~mask ~boot scenario walk.events walk.observations
      in
      Probe.span_at probe "replay" ~t0 ~t1:(Probe.now probe);
      Probe.count probe "conform.rounds" 1;
      match outcome with
      | Some (failed_at, failure) ->
        Probe.count probe "conform.events" (failed_at + 1);
        { rounds_run = round;
          total_events = total_events + failed_at + 1;
          discrepancy =
            Some
              { round; events = walk.events;
                labels = Spec.labels spec scenario walk.events; failed_at;
                failure };
          duration = Unix.gettimeofday () -. started }
      | None ->
        Probe.count probe "conform.events" walk.depth;
        let total_events = total_events + walk.depth in
        tick round total_events;
        loop (round + 1) total_events
  in
  loop 1 0
