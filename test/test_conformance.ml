open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let case name f = Alcotest.test_case name `Quick f

(* Every system's fixed spec must conform to its fixed implementation: the
   core promise of §3.2 after the iterative process converges. *)
let conformance_pass (sys : R.t) () =
  let spec = sys.spec Bug.Flags.empty in
  let report =
    Conformance.run ~mask:Systems.Common.conformance_mask ~walk_depth:25 spec
      ~boot:(fun sc -> sys.sut Bug.Flags.empty None sc)
      sys.default_scenario ~rounds:25 ~seed:123
  in
  match report.discrepancy with
  | None -> ()
  | Some d -> Alcotest.failf "discrepancy: %a" Conformance.pp_discrepancy d

(* Round r replays walk r - 1 of the seed's stream: the walks
   Simulate.walks lists, which the CLI's parallel walk generation lists
   too. A booted implementation records what it is asked to execute. *)
let test_replays_walk_stream () =
  let sys = R.find "pysyncobj" in
  let spec = sys.spec Bug.Flags.empty in
  let scenario = sys.default_scenario in
  let seed = 7 and rounds = 20 and walk_depth = 25 in
  let replayed = ref [] in
  let boot sc =
    let sut = sys.sut Bug.Flags.empty None sc in
    let events = ref [] in
    replayed := events :: !replayed;
    { sut with
      Conformance.execute =
        (fun e ->
          events := e :: !events;
          sut.execute e) }
  in
  let report =
    Conformance.run ~mask:Systems.Common.conformance_mask ~walk_depth spec
      ~boot scenario ~rounds ~seed
  in
  Alcotest.(check bool) "conforms" true (report.discrepancy = None);
  Alcotest.(check int) "rounds" rounds report.rounds_run;
  let opts = { Simulate.max_depth = walk_depth; purpose = Conform } in
  let walks = Simulate.walks spec scenario opts ~seed ~count:rounds in
  let replayed = List.rev_map (fun r -> List.rev !r) !replayed in
  let same_events what (expected : Trace.t list) =
    Alcotest.(check int) (what ^ ": walks") rounds (List.length expected);
    List.iteri
      (fun i (e, r) ->
        Alcotest.(check bool)
          (Fmt.str "round %d replays %s walk %d" (i + 1) what i)
          true
          (List.length e = List.length r && List.for_all2 Trace.equal_event e r))
      (List.combine expected replayed)
  in
  Alcotest.(check int) "one boot per round" rounds (List.length replayed);
  same_events "Simulate.walks"
    (List.map (fun (w : Simulate.walk) -> w.events) walks);
  same_events "Par_simulate.walks"
    (List.map
       (fun (w : Simulate.walk) -> w.events)
       (Par.Par_simulate.walks ~workers:2 spec scenario opts ~seed
          ~count:rounds));
  Alcotest.(check int) "total events = summed walk depths"
    (List.fold_left (fun n (w : Simulate.walk) -> n + w.depth) 0 walks)
    report.total_events

(* A conformance walk compares observations only: it builds the successor
   it takes and no other, evaluates no invariant and installs no coverage
   collector of its own, so the branch marks of the successors it builds
   reach the caller's. The toy spec counts its invariant calls and the
   successors it builds; its implementation mirrors it. *)
module Toy = Toy_spec.Make (struct
  let limit = Some 2
end)

let invariant_calls = ref 0
let built = ref 0

module Counting = struct
  include Toy

  let successors sc st =
    List.map
      (fun (e, build) ->
        ( e,
          fun () ->
            incr built;
            build () ))
      (Toy.successors sc st)

  let next sc st = Spec.force (successors sc st)

  let invariants =
    List.map
      (fun (name, holds) ->
        ( name,
          fun sc st ->
            incr invariant_calls;
            holds sc st ))
      Toy.invariants
end

let toy_sut (scenario : Scenario.t) =
  let ticks = Array.make scenario.nodes 0 in
  { Conformance.execute =
      (function
      | Trace.Timeout { node; _ } ->
        ticks.(node) <- ticks.(node) + 1;
        Ok ()
      | e -> Error (Fmt.str "unexpected %a" Trace.pp_event e));
    observe =
      (fun () ->
        Tla.Value.record
          [ ( "ticks",
              Tla.Value.seq (Array.to_list (Array.map Tla.Value.int ticks)) )
          ]) }

let test_compares_only () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:6 in
  let spec : Spec.t = (module Counting) in
  let rounds = 20 and walk_depth = 10 and seed = 1 in
  invariant_calls := 0;
  built := 0;
  let report, seen =
    Coverage.collect (fun () ->
        Conformance.run ~walk_depth spec ~boot:toy_sut scenario ~rounds ~seed)
  in
  Alcotest.(check bool) "conforms" true (report.discrepancy = None);
  Alcotest.(check int) "no invariant evaluated" 0 !invariant_calls;
  Alcotest.(check int) "one successor built per replayed event"
    report.total_events !built;
  let walks =
    Simulate.walks spec scenario
      { Simulate.max_depth = walk_depth; purpose = Conform }
      ~seed ~count:rounds
  in
  let taken =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (w : Simulate.walk) ->
           List.map
             (function
               | Trace.Timeout { node; _ } -> Fmt.str "toy/tick%d" node
               | _ -> "")
             w.events)
         walks)
  in
  Alcotest.(check (list string)) "the caller's collector sees the taken branches"
    taken (Coverage.branches seen);
  (* a checking walk of the same stream builds every successor and checks
     the invariants at every state *)
  invariant_calls := 0;
  built := 0;
  let checked = Simulate.walks spec scenario Simulate.default ~seed ~count:rounds in
  let events = List.fold_left (fun n (w : Simulate.walk) -> n + w.depth) 0 checked in
  Alcotest.(check bool) "a checking walk evaluates invariants" true
    (!invariant_calls > events);
  Alcotest.(check bool) "a checking walk builds every successor" true
    (!built > events)

(* A buggy implementation against the fixed spec must be caught. *)
let mismatch_detected (sys : R.t) flags seed () =
  let spec = sys.spec Bug.Flags.empty in
  let bugs = Bug.flags flags in
  let report =
    Conformance.run ~mask:Systems.Common.conformance_mask ~walk_depth:30
      ~time_budget:30. spec
      ~boot:(fun sc -> sys.sut bugs None sc)
      sys.default_scenario ~rounds:3000 ~seed
  in
  match report.discrepancy with
  | Some _ -> ()
  | None ->
    Alcotest.failf "bug %s not caught in %d rounds"
      (String.concat "," flags) report.rounds_run

(* Replay a scripted schedule of the FIXED spec against a buggy
   implementation: the divergence is the conformance bug report. *)
let scripted_mismatch flags scenario script () =
  let sys = R.find "wraft" in
  let spec = sys.spec Bug.Flags.empty in
  match Script.run spec scenario script with
  | Error f -> Alcotest.failf "script failed: %a" Script.pp_failure f
  | Ok trace -> (
    match
      Replay.confirm ~mask:Systems.Common.conformance_mask spec
        ~boot:(fun sc -> sys.sut (Bug.flags flags) None sc)
        scenario trace
    with
    | Replay.False_alarm _ -> ()  (* the discrepancy IS the impl bug *)
    | Replay.Confirmed _ ->
      Alcotest.failf "buggy impl followed the fixed spec (%s)"
        (String.concat "," flags))

let test_replay_confirms () =
  (* find PySyncObj#3 by BFS, then confirm it at the implementation level *)
  let sys = R.find "pysyncobj" in
  let bugs = Bug.flags [ "pso3" ] in
  let spec = sys.spec bugs in
  let opts =
    { Explorer.default with
      only_invariants = Some [ "NextIndexGtMatchIndex" ];
      time_budget = Some 60. }
  in
  let r = Explorer.check spec sys.default_scenario opts in
  match r.outcome with
  | Explorer.Violation v -> (
    match
      Replay.confirm ~mask:Systems.Common.conformance_mask spec
        ~boot:(fun sc -> sys.sut bugs None sc)
        sys.default_scenario v.events
    with
    | Replay.Confirmed { events } ->
      Alcotest.(check int) "all events replayed" v.depth events
    | Replay.False_alarm d ->
      Alcotest.failf "false alarm: %a" Conformance.pp_discrepancy d)
  | _ -> Alcotest.fail "pso3 not found"

let test_workflow_end_to_end () =
  let sys = R.find "pysyncobj" in
  let bugs = Bug.flags [ "pso5" ] in
  let outcome =
    Workflow.run ~conf_rounds:10
      ~check_opts:
        { Explorer.default with
          only_invariants = Some [ "NoOlderTermCommit" ];
          time_budget = Some 60. }
      (sys.bundle bugs sys.default_scenario)
  in
  Alcotest.(check bool) "conformance passed" true
    (outcome.conformance.discrepancy = None);
  (match outcome.check with
  | Some { outcome = Explorer.Violation _; _ } -> ()
  | _ -> Alcotest.fail "model checking should find pso5");
  match outcome.confirmation with
  | Some (Replay.Confirmed _) -> ()
  | _ -> Alcotest.fail "bug should be confirmed at the implementation level"

let test_fix_validation () =
  let sys = R.find "pysyncobj" in
  let small =
    Scenario.v ~name:"fixcheck" ~nodes:2 ~workload:[ 1 ]
      [ "timeouts", 4; "requests", 2; "crashes", 1; "restarts", 1;
        "partitions", 1; "buffer", 3 ]
  in
  let v =
    Workflow.validate_fix ~conf_rounds:10
      ~check_opts:{ Explorer.default with time_budget = Some 120. }
      (sys.bundle Bug.Flags.empty small)
  in
  Alcotest.(check bool) "fix validated" true (Workflow.fix_ok v)

let test_mask_drops_aux () =
  let spec = (R.find "pysyncobj").spec Bug.Flags.empty in
  let (module S : Spec.S) = spec in
  let s0 = List.hd (S.init (R.find "pysyncobj").default_scenario) in
  let masked = Systems.Common.conformance_mask (S.observe s0) in
  Alcotest.(check bool) "counters dropped" true
    (Tla.Value.field masked "counters" = None);
  Alcotest.(check bool) "flags dropped" true (Tla.Value.field masked "flags" = None);
  Alcotest.(check bool) "nodes kept" true (Tla.Value.field masked "nodes" <> None)

let suite =
  ( "conformance",
    [ case "mask projects to impl-observables" test_mask_drops_aux;
      case "rounds replay the seed's walk stream" test_replays_walk_stream;
      case "walks build and check only what is compared" test_compares_only;
      case "replay confirms pso3" test_replay_confirms;
      case "workflow end-to-end (pso5)" test_workflow_end_to_end;
      case "fix validation" test_fix_validation ]
    @ List.map
        (fun (sys : R.t) ->
          case (sys.name ^ " fixed pair conforms") (conformance_pass sys))
        R.all
    @ [ case "pso1 impl crash caught" (mismatch_detected (R.find "pysyncobj") [ "pso1" ] 3);
        case "raftos3 KeyError caught" (mismatch_detected (R.find "raftos") [ "raftos3" ] 4);
        case "xraft2 exception caught" (mismatch_detected (R.find "xraft") [ "xraft2" ] 5);
        case "wraft8 heartbeat stop caught (directed)"
          (scripted_mismatch [ "wraft8" ] Systems.Wraft.wraft8_scenario
             Systems.Wraft.wraft8_script);
        case "wraft6 leak caught (directed)"
          (scripted_mismatch [ "wraft6" ] Systems.Wraft.wraft6_scenario
             Systems.Wraft.wraft6_script);
        case "wraft3 snapshot reject caught (directed)"
          (scripted_mismatch [ "wraft3" ] Systems.Wraft.wraft3_scenario
             Systems.Wraft.wraft3_script) ]
  )
