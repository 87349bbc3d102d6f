type confirmation =
  | Confirmed of { events : int }
  | False_alarm of Conformance.discrepancy

let pp_confirmation ppf = function
  | Confirmed { events } ->
    Fmt.pf ppf "bug CONFIRMED at the implementation level (%d events replayed)"
      events
  | False_alarm d ->
    Fmt.pf ppf "@[<v>false alarm — spec/impl discrepancy:@,%a@]"
      Conformance.pp_discrepancy d

let confirm ?(mask = Fun.id) spec ~boot scenario events =
  let observations =
    match Spec.observations_along spec scenario events with
    | Some obs -> obs
    | None ->
      invalid_arg "Replay.confirm: trace is not replayable on the spec"
  in
  match Conformance.replay ~mask ~boot scenario events observations with
  | None -> Confirmed { events = List.length events }
  | Some (failed_at, failure) ->
    False_alarm
      { round = 1; events; labels = Spec.labels spec scenario events;
        failed_at; failure }
