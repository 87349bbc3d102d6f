(* Bug-findability tests (paper Table 2): BFS locates the fast safety
   violations; the deep ones (WRaft#2, ZooKeeper#1) are validated through
   their directed reproduction scripts. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let case name f = Alcotest.test_case name `Quick f

let finds_violation system flags invariant ?scenario () =
  let sys = R.find system in
  let info =
    List.find (fun (b : Bug.info) -> b.flags = flags) sys.bugs
  in
  let scenario = Option.value scenario ~default:info.scenario in
  let spec = sys.spec (Bug.flags flags) in
  let opts =
    { Explorer.default with
      only_invariants = Some [ invariant ];
      time_budget = Some 120. }
  in
  match (Explorer.check spec scenario opts).outcome with
  | Explorer.Violation v ->
    Alcotest.(check string) "invariant" invariant v.invariant;
    Alcotest.(check bool) "positive depth" true (v.depth > 0)
  | Explorer.Exhausted -> Alcotest.fail "exhausted without violation"
  | _ -> Alcotest.fail "budget spent without violation"

let fixed_clean system scenario () =
  let sys = R.find system in
  let r =
    Explorer.check
      (sys.spec Bug.Flags.empty)
      scenario
      { Explorer.default with time_budget = Some 60. }
  in
  match r.outcome with
  | Explorer.Violation v -> Alcotest.failf "fixed spec violated %s" v.invariant
  | Explorer.Exhausted | Explorer.Budget_spent -> ()

let small_scenario ?(udp = false) () =
  Scenario.v ~name:"small" ~nodes:2 ~workload:[ 1 ]
    ([ "timeouts", 4; "requests", 2; "crashes", 1; "restarts", 1;
       "partitions", 1; "buffer", 3 ]
    @ if udp then [ "drops", 1; "dups", 1 ] else [])

let test_fig7_script () =
  let spec = Systems.Wraft.spec ~bugs:(Bug.flags [ "wraft2" ]) () in
  match
    Script.run spec Systems.Wraft.fig7_scenario Systems.Wraft.fig7_script
  with
  | Error f -> Alcotest.failf "script failed: %a" Script.pp_failure f
  | Ok trace -> (
    match Script.violation_after spec Systems.Wraft.fig7_scenario trace with
    | Some ("CommittedLogConsistency", _) -> ()
    | Some (other, _) -> Alcotest.failf "wrong invariant %s" other
    | None -> Alcotest.fail "no violation")

let test_fig7_fixed_immune () =
  (* the same schedule on the fixed spec sends a snapshot, keeping the
     committed logs consistent *)
  let spec = Systems.Wraft.spec () in
  match
    Script.run spec Systems.Wraft.fig7_scenario Systems.Wraft.fig7_script
  with
  | Error _ -> ()  (* the fixed leader emits Snap, not AE: pattern mismatch *)
  | Ok trace -> (
    match Script.violation_after spec Systems.Wraft.fig7_scenario trace with
    | None -> ()
    | Some (inv, _) -> Alcotest.failf "fixed spec violated %s" inv)

let test_zk1_script () =
  let spec = Systems.Zookeeper.spec ~bugs:(Bug.flags [ "zk1" ]) () in
  let scenario = Systems.Zookeeper.zk1_script_scenario in
  match Script.run spec scenario Systems.Zookeeper.zk1_script with
  | Error f -> Alcotest.failf "script failed: %a" Script.pp_failure f
  | Ok trace -> (
    match Script.violation_after spec scenario trace with
    | Some ("CommittedNotLost", _) -> ()
    | Some (other, _) -> Alcotest.failf "wrong invariant %s" other
    | None -> Alcotest.fail "no violation")

let test_zk1_fixed_immune () =
  let spec = Systems.Zookeeper.spec () in
  let scenario = Systems.Zookeeper.zk1_script_scenario in
  match Script.run spec scenario Systems.Zookeeper.zk1_script with
  | Error _ -> ()  (* correct vote order blocks the stale leader's election *)
  | Ok trace -> (
    match Script.violation_after spec scenario trace with
    | None -> ()
    | Some (inv, _) -> Alcotest.failf "fixed spec violated %s" inv)

let test_bug_registry_complete () =
  let total =
    List.fold_left (fun n (sys : R.t) -> n + List.length sys.bugs) 0 R.all
  in
  Alcotest.(check int) "23 bugs (Table 2)" 23 total;
  Alcotest.(check int) "8 systems" 8 (List.length R.all);
  let new_bugs =
    List.concat_map (fun (sys : R.t) -> sys.bugs) R.all
    |> List.filter (fun (b : Bug.info) -> b.status = "New")
  in
  Alcotest.(check int) "18 new bugs" 18 (List.length new_bugs)

let test_flags_resolution () =
  let sys = R.find "pysyncobj" in
  let by_id = R.flags_of sys [ "PySyncObj#4" ] in
  Alcotest.(check bool) "bug id resolves" true (Bug.Flags.mem "pso4" by_id);
  let by_flag = R.flags_of sys [ "pso2" ] in
  Alcotest.(check bool) "raw flag resolves" true (Bug.Flags.mem "pso2" by_flag);
  Alcotest.check_raises "unknown rejected"
    (Invalid_argument "unknown bug or flag: nope") (fun () ->
      ignore (R.flags_of sys [ "nope" ]))

let suite =
  ( "bugs",
    [ case "PySyncObj#3 next<=match" (finds_violation "pysyncobj" [ "pso3" ] "NextIndexGtMatchIndex");
      case "PySyncObj#5 older-term commit" (finds_violation "pysyncobj" [ "pso5" ] "NoOlderTermCommit");
      case "PySyncObj#2 commit monotonic" (finds_violation "pysyncobj" [ "pso2"; "pso4" ] "CommitIndexMonotonic");
      case "WRaft#4 term monotonic" (finds_violation "wraft" [ "wraft4" ] "TermMonotonic");
      case "WRaft#5 empty retries" (finds_violation "wraft" [ "wraft5" ] "RetryNonEmpty");
      case "RaftOS#1 match monotonic" (finds_violation "raftos" [ "raftos1" ] "MatchIndexMonotonic");
      case "RaftOS#2 erased entries" (finds_violation "raftos" [ "raftos2" ] "CommitIndexWithinLog");
      case "DaosRaft#1 leader votes" (finds_violation "daosraft" [ "daos1" ] "LeaderDoesNotVote");
      case "Xraft-KV#1 linearizability" (finds_violation "xraft-kv" [ "xkv1" ] "Linearizability");
      case "WRaft#2 via fig7 script" test_fig7_script;
      case "fig7 schedule harmless when fixed" test_fig7_fixed_immune;
      case "ZooKeeper#1 via script" test_zk1_script;
      case "zk1 schedule harmless when fixed" test_zk1_fixed_immune;
      case "fixed pysyncobj clean" (fixed_clean "pysyncobj" (small_scenario ()));
      case "fixed wraft clean" (fixed_clean "wraft" (small_scenario ~udp:true ()));
      case "fixed raftos clean" (fixed_clean "raftos" (small_scenario ~udp:true ()));
      case "fixed daosraft clean" (fixed_clean "daosraft" (small_scenario ()));
      case "bug registry totals" test_bug_registry_complete;
      case "flag resolution" test_flags_resolution ] )
