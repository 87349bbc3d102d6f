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
  let sut = boot scenario in
  let false_alarm failed_at failure =
    False_alarm
      { round = 1; events; labels = Spec.labels spec scenario events;
        failed_at; failure }
  in
  let rec step i evs obs =
    match evs, obs with
    | [], [] -> Confirmed { events = List.length events }
    | event :: evs', expected :: obs' -> (
      match sut.Conformance.execute event with
      | Error msg -> false_alarm i (Conformance.Impl_error msg)
      | Ok () ->
        let actual = sut.Conformance.observe () in
        let diffs = Tla.Value.diff ~expected:(mask expected) ~actual in
        if diffs <> [] then false_alarm i (Conformance.State_mismatch diffs)
        else step (i + 1) evs' obs')
    | _ -> assert false
  in
  step 0 events observations
