(* Partition tolerance deep-dive: the Fig. 7 scenario of the paper.

     dune exec examples/partition_tolerance.exe

   An old leader is partitioned away holding an uncommitted entry; the new
   leader commits, compacts its log, and — because of WRaft#2 — resyncs the
   healed node with an AppendEntries instead of a snapshot, leaving the
   cluster with inconsistent committed logs. *)

open Sandtable

let () =
  let bugs = Systems.Bug.flags [ "wraft2" ] in
  let spec = Systems.Wraft.spec ~bugs () in
  let scenario = Systems.Wraft.fig7_scenario in
  Fmt.pr "replaying the Figure 7 schedule on the buggy specification:@.@.";
  match Script.run spec scenario Systems.Wraft.fig7_script with
  | Error f -> Fmt.pr "script failed:@.%a@." Script.pp_failure f
  | Ok trace -> (
    Fmt.pr "%a@." (Trace.pp_labelled (Spec.labels spec scenario trace)) trace;
    (match Script.violation_after spec scenario trace with
    | Some (invariant, index) ->
      Fmt.pr "=> invariant %s violated at event %d@.@." invariant index
    | None -> Fmt.pr "no violation?!@.");
    Fmt.pr "confirming at the implementation level...@.";
    let confirmation =
      Replay.confirm ~mask:Systems.Common.conformance_mask spec
        ~boot:(fun sc -> Systems.Wraft.sut ~bugs sc)
        scenario trace
    in
    Fmt.pr "%a@.@." Replay.pp_confirmation confirmation;
    Fmt.pr "and on the FIXED build the same schedule is harmless:@.";
    let fixed = Systems.Wraft.spec () in
    match Script.run fixed scenario Systems.Wraft.fig7_script with
    | Error f ->
      Fmt.pr
        "the fixed leader sends a snapshot instead, so the schedule cannot \
         even be followed (step %d expects an AppendEntries).@."
        f.at
    | Ok trace -> (
      match Script.violation_after fixed scenario trace with
      | None -> Fmt.pr "schedule replayed, all invariants hold.@."
      | Some (inv, _) -> Fmt.pr "unexpected violation %s@." inv))
