open Sandtable

let case name f = Alcotest.test_case name `Quick f

let test_walk_deterministic () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let spec = Toy_spec.spec () in
  let walk seed =
    List.hd (Simulate.walks spec scenario Simulate.default ~seed ~count:1)
  in
  let a = walk 42 and b = walk 42 in
  Alcotest.(check bool) "same seed, same walk" true
    (List.for_all2 Trace.equal_event a.events b.events);
  let c = walk 43 in
  Alcotest.(check bool) "walk is budget-bounded" true (c.depth <= 5)

let test_walk_depth_bound () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:50 in
  let opts = { Simulate.default with max_depth = 7 } in
  let w =
    List.hd (Simulate.walks (Toy_spec.spec ()) scenario opts ~seed:1 ~count:1)
  in
  Alcotest.(check int) "depth capped" 7 w.depth

let test_walk_detects_violation () =
  let scenario = Toy_spec.scenario ~nodes:1 ~timeouts:10 in
  let w =
    List.hd
      (Simulate.walks (Toy_spec.spec ~limit:3 ()) scenario
         { Simulate.default with max_depth = 10 }
         ~seed:1 ~count:1)
  in
  match w.violation with
  | Some ("BelowLimit", depth) -> Alcotest.(check int) "violated at 3" 3 depth
  | _ -> Alcotest.fail "single-node walk must hit the limit"

let test_coverage_collected () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let ws =
    Simulate.walks (Toy_spec.spec ()) scenario Simulate.default ~seed:5 ~count:10
  in
  let agg = Simulate.aggregate ws in
  Alcotest.(check int) "both tick branches covered" 2
    (Coverage.cardinal agg.union_coverage);
  Alcotest.(check (list string)) "one event kind" [ "timeout" ]
    agg.event_kinds;
  Alcotest.(check int) "runs" 10 agg.runs

let test_observations_recorded () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
  let opts = { Simulate.default with purpose = Conform } in
  let w =
    List.hd (Simulate.walks (Toy_spec.spec ()) scenario opts ~seed:2 ~count:1)
  in
  Alcotest.(check int) "one observation per event" w.depth
    (List.length w.observations)

(* A conformance walk checks nothing: past the toy's limit it reports no
   violation and no coverage, where the checking walk of the same seed
   stops at the violation, on a prefix of the same events. *)
let test_conform_walk_checks_nothing () =
  let scenario = Toy_spec.scenario ~nodes:1 ~timeouts:10 in
  let walk purpose =
    List.hd
      (Simulate.walks (Toy_spec.spec ~limit:3 ()) scenario
         { Simulate.max_depth = 10; purpose } ~seed:1 ~count:1)
  in
  let checked = walk Check and conform = walk Conform in
  Alcotest.(check bool) "checking walk stops at the violation" true
    (checked.violation = Some ("BelowLimit", 3));
  Alcotest.(check bool) "conformance walk reports none" true
    (conform.violation = None);
  Alcotest.(check int) "conformance walk goes on" 10 conform.depth;
  Alcotest.(check int) "no coverage" 0 (Coverage.cardinal conform.coverage);
  Alcotest.(check bool) "same stream" true
    (List.equal Trace.equal_event checked.events
       (List.filteri (fun i _ -> i < checked.depth) conform.events))

(* Seeded checking walks keep their coverage and verdicts: each line is
   what `simulate SYS [--bugs F] --walks N --seed 1` printed before
   conformance walks stopped building every successor. The running
   aggregate gives the same line, and the same first violating walk, at
   every worker count. *)
let test_seeded_aggregates_pinned () =
  let module R = Systems.Registry in
  let module Bug = Systems.Bug in
  let pinned =
    [ ( "pysyncobj", [], 300,
        "runs=300 events=5026 mean_depth=16.8 max_depth=26 coverage=16 \
         kinds=7 violations=0" );
      ( "wraft", [ "wraft4" ], 200,
        "runs=200 events=3040 mean_depth=15.2 max_depth=26 coverage=16 \
         kinds=9 violations=90" );
      ( "daosraft", [ "daos1" ], 300,
        "runs=300 events=7342 mean_depth=24.5 max_depth=44 coverage=18 \
         kinds=7 violations=8" );
      ( "xraft", [ "xraft1" ], 300,
        "runs=300 events=6109 mean_depth=20.4 max_depth=35 coverage=17 \
         kinds=7 violations=102" );
      ( "zookeeper", [], 2000,
        "runs=2000 events=65393 mean_depth=32.7 max_depth=60 coverage=26 \
         kinds=7 violations=5" ) ]
  in
  let seed = 1 and opts = { Simulate.default with max_depth = 60 } in
  List.iter
    (fun (name, flags, count, expected) ->
      let sys = R.find name in
      let spec = sys.spec (Bug.flags flags) and scenario = sys.default_scenario in
      let ws = Simulate.walks spec scenario opts ~seed ~count in
      let first =
        List.find_opt (fun (w : Simulate.walk) -> w.violation <> None) ws
      in
      let line (a : Simulate.aggregate) = Fmt.str "%a" Simulate.pp_aggregate a in
      Alcotest.(check string) name expected (line (Simulate.aggregate ws));
      List.iter
        (fun workers ->
          let agg, _ =
            Par.Par_simulate.aggregate ~workers spec scenario opts ~seed ~count
          in
          let label what = Fmt.str "%s -j%d %s" name workers what in
          Alcotest.(check string) (label "line") expected (line agg);
          Alcotest.(check bool) (label "first violating walk") true
            (Option.map (fun (w : Simulate.walk) -> w.events) first
            = Option.map (fun (w : Simulate.walk) -> w.events)
                agg.first_violation))
        [ 1; 2 ])
    pinned

let test_rank_orders_budgets () =
  let spec = Toy_spec.spec () in
  let configs = [ { Rank.cname = "c"; nodes = 2; workload = [ 1 ] } ] in
  let budgets = [ [ "timeouts", 1 ]; [ "timeouts", 8 ] ] in
  match
    Rank.rank spec ~configs ~budgets ~walks_per:20 ~walk_depth:10 ~seed:1
  with
  | [ (_, [ best; worst ]) ] ->
    (* both cover the same 2 branches; the shallower budget ranks first *)
    Alcotest.(check bool) "coverage order" true (best.coverage >= worst.coverage);
    Alcotest.(check bool) "shallower first on tie" true
      (best.coverage > worst.coverage || best.mean_depth <= worst.mean_depth)
  | _ -> Alcotest.fail "rank shape"

let test_rank_default_compare () =
  let d budget coverage diversity mean_depth =
    { Rank.budget; coverage; diversity; mean_depth; max_depth = 0;
      violations = 0 }
  in
  let high_cov = d [] 10 2 20. and low_cov = d [] 5 9 1. in
  Alcotest.(check bool) "coverage dominates" true
    (Rank.default_compare high_cov low_cov < 0);
  let deep = d [] 5 2 30. and shallow = d [] 5 2 10. in
  Alcotest.(check bool) "shallow preferred on ties" true
    (Rank.default_compare shallow deep < 0)

let suite =
  ( "simulate+rank",
    [ case "seeded determinism" test_walk_deterministic;
      case "depth bound" test_walk_depth_bound;
      case "violation detection" test_walk_detects_violation;
      case "coverage collection" test_coverage_collected;
      case "observation recording" test_observations_recorded;
      case "algorithm 1 ordering" test_rank_orders_budgets;
      case "default comparator" test_rank_default_compare;
      case "conformance walks check nothing" test_conform_walk_checks_nothing;
      case "seeded aggregates pinned" test_seeded_aggregates_pinned ] )
