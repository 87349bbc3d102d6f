(* Counterexample shrinking: find a violation by random walks (which, unlike
   BFS, returns traces that are nowhere near depth-minimal), minimize it
   with replay-validated ddmin, and re-confirm the shorter reproduction
   against the real implementation.

     dune exec examples/shrink_repro.exe *)

open Sandtable
module R = Systems.Registry

let shrink_one system flag =
  let sys = R.find system in
  let flags = R.flags_of sys [ flag ] in
  let spec = sys.spec flags in
  let scenario = sys.default_scenario in
  let opts = { Simulate.default with max_depth = 60 } in
  let walks = Simulate.walks spec scenario opts ~seed:1 ~count:500 in
  match
    List.find_opt (fun (w : Simulate.walk) -> w.violation <> None) walks
  with
  | None -> Fmt.pr "%s/%s: no violating walk at this seed@." system flag
  | Some w ->
    let inv, idx = Option.get w.violation in
    let original = List.filteri (fun i _ -> i < idx) w.events in
    Fmt.pr "@.--- %s/%s: %s violated after %d random-walk events ---@."
      system flag inv (List.length original);
    let o = Shrink.run spec scenario (Shrink.Invariant inv) original in
    Fmt.pr "%a@." Shrink.pp_outcome o;
    Fmt.pr "minimized repro:@.%a@." (Trace.pp_labelled o.labels) o.minimized;
    (* the shortened trace must still be a real bug, not a shrinking
       artefact: replay it against the actual implementation *)
    (match
       Replay.confirm ~mask:Systems.Common.conformance_mask spec
         ~boot:(fun sc -> sys.sut flags None sc)
         scenario o.minimized
     with
    | Replay.Confirmed { events } ->
      Fmt.pr "implementation CONFIRMS the minimized trace (%d events)@." events
    | Replay.False_alarm d ->
      Fmt.pr "implementation diverged: %a@." Conformance.pp_discrepancy d)

let () =
  shrink_one "daosraft" "daos1";
  shrink_one "wraft" "wraft4";
  shrink_one "xraft" "xraft1";
  Fmt.pr
    "@.Random walks find bugs fast but with noisy traces; ddmin with \
     spec-replay validation cuts them to a reviewable core, and the \
     implementation replay guarantees the cut trace is still the same \
     bug (§3.4).@."
