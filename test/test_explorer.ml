open Sandtable

let case name f = Alcotest.test_case name `Quick f

(* Distinct states of the toy spec with n nodes and T ticks: compositions of
   at most T over n slots = C(T+n, n). *)
let simplex n t =
  let rec choose n k =
    if k = 0 then 1 else choose (n - 1) (k - 1) * n / k
  in
  choose (t + n) n

let test_exhaustive_counts () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
  let r =
    Explorer.check (Toy_spec.spec ()) scenario
      { Explorer.default with symmetry = false }
  in
  (match r.outcome with
  | Explorer.Exhausted -> ()
  | _ -> Alcotest.fail "should exhaust");
  Alcotest.(check int) "distinct states" (simplex 2 4) r.distinct;
  Alcotest.(check int) "max depth" 4 r.max_depth

let test_symmetry_reduces () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
  let r =
    Explorer.check (Toy_spec.spec ()) scenario
      { Explorer.default with symmetry = true }
  in
  (* unordered pairs (a, b) with a+b <= 4: 9 of them *)
  Alcotest.(check int) "canonical states" 9 r.distinct

let test_violation_minimal_depth () =
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let r =
    Explorer.check (Toy_spec.spec ~limit:3 ()) scenario Explorer.default
  in
  match r.outcome with
  | Explorer.Violation v ->
    Alcotest.(check int) "BFS finds min depth" 3 v.depth;
    Alcotest.(check int) "trace length = depth" 3 (List.length v.events);
    Alcotest.(check string) "invariant name" "BelowLimit" v.invariant;
    (* the minimal trace ticks a single node three times *)
    let nodes =
      List.filter_map
        (function Trace.Timeout { node; _ } -> Some node | _ -> None)
        v.events
    in
    Alcotest.(check int) "single node" 1
      (List.length (List.sort_uniq Int.compare nodes))
  | _ -> Alcotest.fail "expected violation"

let test_only_invariants_filter () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:6 in
  let r =
    Explorer.check (Toy_spec.spec ~limit:2 ()) scenario
      { Explorer.default with only_invariants = Some [ "SomethingElse" ] }
  in
  match r.outcome with
  | Explorer.Exhausted -> ()
  | _ -> Alcotest.fail "filtered invariant must not fire"

let test_budget_stops () =
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:30 in
  let r =
    Explorer.check (Toy_spec.spec ()) scenario
      { Explorer.default with max_states = Some 50; symmetry = false }
  in
  match r.outcome with
  | Explorer.Budget_spent -> Alcotest.(check bool) "states bounded" true (r.distinct <= 60)
  | _ -> Alcotest.fail "expected budget stop"

let test_max_depth_bound () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:20 in
  let r =
    Explorer.check (Toy_spec.spec ()) scenario
      { Explorer.default with max_depth = Some 3; symmetry = false }
  in
  (match r.outcome with
  | Explorer.Budget_spent -> ()
  | _ -> Alcotest.fail "expected budget stop");
  Alcotest.(check bool) "depth bounded" true (r.max_depth <= 4)

let test_stateless_redundancy () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let sl =
    Explorer.stateless_dfs (Toy_spec.spec ()) scenario ~max_depth:5 ()
  in
  Alcotest.(check int) "distinct" (simplex 2 5) sl.sl_distinct;
  (* stateless exploration revisits: 2^5 leaf paths alone exceed states *)
  Alcotest.(check bool) "revisits happen" true
    (sl.sl_states_visited > sl.sl_distinct);
  Alcotest.(check int) "executions = paths" 32 sl.sl_executions

let test_trace_replayable () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:6 in
  let spec = Toy_spec.spec ~limit:3 () in
  let r = Explorer.check spec scenario Explorer.default in
  match r.outcome with
  | Explorer.Violation v -> (
    match Spec.observations_along spec scenario v.events with
    | Some observations ->
      Alcotest.(check int) "one observation per event" (List.length v.events)
        (List.length observations)
    | None -> Alcotest.fail "violating trace must replay")
  | _ -> Alcotest.fail "expected violation"

let suite =
  ( "explorer",
    [ case "exhaustive distinct-state count" test_exhaustive_counts;
      case "symmetry reduction count" test_symmetry_reduces;
      case "violation at minimal depth" test_violation_minimal_depth;
      case "only_invariants filter" test_only_invariants_filter;
      case "max_states budget" test_budget_stops;
      case "max_depth budget" test_max_depth_bound;
      case "stateless redundancy" test_stateless_redundancy;
      case "violating trace replays" test_trace_replayable ] )
