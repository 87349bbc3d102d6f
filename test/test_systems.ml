(* Cross-cutting properties every integrated system must satisfy. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let case name f = Alcotest.test_case name `Quick f

let each f = List.iter (fun (sys : R.t) -> f sys) R.all

let test_init_nonempty () =
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      Alcotest.(check bool)
        (sys.name ^ " init") true
        (S.init sys.default_scenario <> []))

let test_next_deterministic () =
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      let s0 = List.hd (S.init sys.default_scenario) in
      let events l = List.map (fun (e, _) -> Fmt.str "%a" Trace.pp_event e) l in
      Alcotest.(check (list string))
        (sys.name ^ " next deterministic")
        (events (S.next sys.default_scenario s0))
        (events (S.next sys.default_scenario s0)))

let test_events_unique () =
  (* deterministic replay (§3.4) requires events to identify transitions *)
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      let s0 = List.hd (S.init sys.default_scenario) in
      let rec probe depth state =
        if depth = 0 then ()
        else
          let successors = S.next sys.default_scenario state in
          let keys =
            List.map (fun (e, _) -> Fmt.str "%a" Trace.pp_event e) successors
          in
          Alcotest.(check int)
            (sys.name ^ " unique events")
            (List.length keys)
            (List.length (List.sort_uniq String.compare keys));
          match successors with
          | (_, s') :: _ -> probe (depth - 1) s'
          | [] -> ()
      in
      probe 6 s0)

(* [successors] is [next] built on demand: on every reachable state of a
   small all-faults scenario per system, the same events in the same
   order, and each state — forced last to first, so that no thunk relies
   on another having run — marshals to the bytes of [next]'s. *)
let test_successors_agree_with_next () =
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      let scenario =
        Scenario.v ~name:(sys.name ^ "-lazy") ~nodes:2 ~workload:[ 1 ]
          [ ("timeouts", 2); ("requests", 1); ("crashes", 1); ("restarts", 1);
            ("partitions", 1); ("drops", 1); ("dups", 1); ("buffer", 2) ]
      in
      let bytes s = Marshal.to_string s [ Marshal.No_sharing ] in
      let seen = Fingerprint.Tbl.create 4096 and queue = Queue.create () in
      let visit s =
        let fp = Fingerprint.of_state s in
        if not (Fingerprint.Tbl.mem seen fp) then begin
          Fingerprint.Tbl.add seen fp ();
          if S.constraint_ok scenario s then Queue.add s queue
        end
      in
      List.iter visit (S.init scenario);
      let mismatches = ref 0 in
      while not (Queue.is_empty queue) do
        let s = Queue.pop queue in
        let eager = S.next scenario s and lazy_ = S.successors scenario s in
        let forced =
          List.rev (List.map (fun (_, build) -> bytes (build ())) (List.rev lazy_))
        in
        if
          not
            (List.equal Trace.equal_event (List.map fst eager) (List.map fst lazy_)
            && List.equal String.equal (List.map (fun (_, s') -> bytes s') eager)
                 forced)
        then incr mismatches;
        List.iter (fun (_, s') -> visit s') eager
      done;
      Alcotest.(check bool)
        (sys.name ^ " explored some states") true
        (Fingerprint.Tbl.length seen > 100);
      Alcotest.(check int) (sys.name ^ " states where they differ") 0 !mismatches)

(* The skeleton resolves a budget's bounds once per budget list. Its
   answers must be the string-keyed ones: the first binding of a key wins;
   an absent key leaves the constraint's counter unbounded (its buffer at
   the system's default, 4 for PySyncObj) but lets the enumeration fire 3
   timeouts and the system's default requests (3); a zero cap allows
   nothing. Budgets alternate, so every answer is resolved afresh. *)
module Pso = Systems.Pysyncobj_spec.Make (struct
  let bugs = Bug.Flags.empty
end)

let test_resolved_bounds () =
  let module Rs = Raft_kernel.Raft_spec in
  let get budget key ~default = Scenario.budget_get budget key ~default in
  let reference_constraint budget (st : Systems.Pysyncobj_spec.state) =
    let c = st.Rs.counters and cap key = get budget key ~default:max_int in
    c.timeouts <= cap "timeouts"
    && c.requests <= cap "requests"
    && c.crashes <= cap "crashes"
    && c.restarts <= cap "restarts"
    && c.partitions <= cap "partitions"
    && c.drops <= cap "drops"
    && c.dups <= cap "dups"
    && Rs.State.Net.max_queue_len st.Rs.net <= get budget "buffer" ~default:4
  in
  let scenario budget = Scenario.v ~name:"bounds" ~nodes:3 ~workload:[ 1 ] budget in
  let s0 = List.hd (Pso.init (scenario [])) in
  (* n1 elected: a leader that accepts client requests, and queued votes *)
  let leader =
    match
      Script.run (module Pso) (scenario [])
        Script.[ timeout 0 "election"; deliver ~src:0 ~dst:1; deliver ~src:1 ~dst:0 ]
    with
    | Ok trace ->
      List.fold_left
        (fun st e -> Option.get (Spec.step (module Pso) (scenario []) st e))
        s0 trace
    | Error f -> Alcotest.failf "%a" Script.pp_failure f
  in
  let with_counters (st : Systems.Pysyncobj_spec.state) f =
    { st with Rs.counters = f st.Rs.counters }
  in
  let states =
    List.concat_map
      (fun st ->
        [ st;
          with_counters st (fun c -> { c with timeouts = 2; requests = 2 });
          with_counters st (fun c -> { c with timeouts = 3; requests = 3 });
          with_counters st (fun c -> { c with timeouts = 5; crashes = 1 });
          with_counters st (fun c -> { c with timeouts = 100; dups = 7 }) ])
      [ s0; leader ]
  in
  let budgets =
    [ [];
      [ ("timeouts", 1); ("timeouts", 5); ("requests", 0); ("requests", 2);
        ("buffer", 0); ("buffer", 9); ("crashes", 1); ("crashes", 0) ];
      [ ("timeouts", 0); ("requests", 0); ("crashes", 0); ("restarts", 0);
        ("partitions", 0); ("drops", 0); ("dups", 0); ("buffer", 0) ];
      [ ("timeouts", 6); ("buffer", 2); ("dups", 7) ] ]
  in
  let kinds budget st =
    List.sort_uniq String.compare
      (List.map (fun (e, _) -> Trace.kind e) (Pso.successors (scenario budget) st))
  in
  Alcotest.(check bool) "the leader takes requests" true
    (List.mem "client" (kinds [] leader));
  for round = 1 to 3 do
    List.iteri
      (fun b budget ->
        List.iteri
          (fun i st ->
            let label what = Fmt.str "round %d budget %d state %d %s" round b i what in
            let c = st.Rs.counters and kinds = kinds budget st in
            Alcotest.(check bool) (label "constraint")
              (reference_constraint budget st)
              (Pso.constraint_ok (scenario budget) st);
            Alcotest.(check bool) (label "timeouts")
              (c.timeouts < get budget "timeouts" ~default:3)
              (List.mem "timeout" kinds);
            Alcotest.(check bool) (label "requests")
              (st.Rs.nodes != s0.Rs.nodes
              && c.requests < get budget "requests" ~default:3)
              (List.mem "client" kinds))
          states)
      budgets
  done;
  Alcotest.(check bool) "absent keys resolve unbounded" true
    (Counters.bounds [] = Counters.bounds [ ("epochs", 1) ]
    && (Counters.bounds []).timeouts = max_int);
  Alcotest.(check (list int)) "first binding wins" [ 1; 0; 1 ]
    (let b = Counters.bounds (List.nth budgets 1) in
     [ b.timeouts; b.requests; b.crashes ])

let test_permute_identity () =
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      let s0 = List.hd (S.init sys.default_scenario) in
      let identity = Array.init sys.default_scenario.nodes Fun.id in
      Alcotest.(check bool)
        (sys.name ^ " permute identity") true
        (Fingerprint.equal
           (Fingerprint.of_state (S.permute identity s0))
           (Fingerprint.of_state s0)))

let test_permute_fingerprint_class () =
  (* walking then permuting yields the same canonical fingerprint *)
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      let scenario = sys.default_scenario in
      let rng = Random.State.make [| 9 |] in
      let rec advance state n =
        if n = 0 then state
        else
          match S.next scenario state with
          | [] -> state
          | succ ->
            let _, s' = List.nth succ (Random.State.int rng (List.length succ)) in
            advance s' (n - 1)
      in
      let s = advance (List.hd (S.init scenario)) 8 in
      let canonical st =
        Symmetry.canonical_fp ~permute:S.permute ~nodes:scenario.nodes st
      in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (sys.name ^ " canonical fp invariant") true
            (Fingerprint.equal (canonical s) (canonical (S.permute p s))))
        (Symmetry.permutations scenario.nodes))

(* Specs that claim symmetry, each on its default scenario widened to three
   nodes so the walks below see all six permutations. *)
let permutable () =
  List.filter_map
    (fun (sys : R.t) ->
      let spec = sys.spec Bug.Flags.empty in
      let (module S : Spec.S) = spec in
      if S.permutable then
        Some (sys.name, spec, { sys.default_scenario with Scenario.nodes = 3 })
      else None)
    R.all

(* Every state along [walks] seeded random walks of [steps] events. *)
let walk_states (type s) (module S : Spec.S with type state = s) scenario
    ~walks ~steps =
  let rng = Random.State.make [| 60 |] in
  let s0 = List.hd (S.init scenario) in
  let rec go st n acc =
    if n = 0 then acc
    else
      match S.next scenario st with
      | [] -> acc
      | succ ->
        let _, s' = List.nth succ (Random.State.int rng (List.length succ)) in
        go s' (n - 1) (s' :: acc)
  in
  List.concat (List.init walks (fun _ -> go s0 steps [ s0 ]))

let test_node_key_equivariant () =
  let check name (module S : Spec.S) scenario =
    let nodes = scenario.Scenario.nodes in
    List.iter
      (fun st ->
        List.iter
          (fun p ->
            let st' = S.permute p st in
            for i = 0 to nodes - 1 do
              if S.node_key st' p.(i) <> S.node_key st i then
                Alcotest.failf "%s: node_key (permute p s) p.(%d) <> node_key s %d"
                  name i i
            done)
          (Symmetry.permutations nodes))
      (walk_states (module S) scenario ~walks:20 ~steps:20)
  in
  check "toy" (Toy_spec.spec ()) (Toy_spec.scenario ~nodes:3 ~timeouts:6);
  List.iter (fun (name, spec, scenario) -> check name spec scenario) (permutable ())

let test_permute_commutes_with_next () =
  (* the property symmetry reduction actually relies on: [permute p s] has
     the successors of [s], renamed — compared as multisets of canonical
     fingerprints. A permutation that is merely a group action on states
     (all [test_permute_fingerprint_class] needs) does not have it when the
     protocol orders nodes by id. *)
  List.iter
    (fun (name, (module S : Spec.S), scenario) ->
      let nodes = scenario.Scenario.nodes in
      let canonical st =
        Symmetry.canonical_fp ~key:S.node_key ~permute:S.permute ~nodes st
      in
      let successors st =
        List.sort Fingerprint.compare
          (List.map (fun (_, s') -> canonical s') (S.next scenario st))
      in
      let pairs = ref 0 and differing = ref 0 in
      List.iter
        (fun st ->
          let expected = successors st in
          List.iter
            (fun p ->
              incr pairs;
              let got = successors (S.permute p st) in
              if not (List.equal Fingerprint.equal expected got) then
                incr differing)
            (Symmetry.permutations nodes))
        (walk_states (module S) scenario ~walks:20 ~steps:20);
      Alcotest.(check int)
        (Fmt.str "%s: (state, permutation) pairs of %d with different successors"
           name !pairs)
        0 !differing)
    (permutable ())

let test_observe_has_nodes_and_net () =
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      let s0 = List.hd (S.init sys.default_scenario) in
      let obs = S.observe s0 in
      Alcotest.(check bool) (sys.name ^ " nodes field") true
        (Tla.Value.field obs "nodes" <> None);
      Alcotest.(check bool) (sys.name ^ " net field") true
        (Tla.Value.field obs "net" <> None))

let test_initial_invariants_hold () =
  each (fun sys ->
      let (module S : Spec.S) = sys.spec Bug.Flags.empty in
      List.iter
        (fun s0 ->
          List.iter
            (fun (name, holds) ->
              Alcotest.(check bool)
                (sys.name ^ " init satisfies " ^ name)
                true
                (holds sys.default_scenario s0))
            S.invariants)
        (S.init sys.default_scenario))

(* property test: along random walks of every system, the invariants keep
   holding (a checking walk's verdict) and the conformance walk of the same
   seed takes the same events with well-formed observations *)
let prop_walks_well_formed =
  QCheck2.Test.make ~name:"random walks well-formed across systems" ~count:24
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 10_000))
    (fun (sys_idx, seed) ->
      let sys = List.nth R.all sys_idx in
      let spec = sys.spec Bug.Flags.empty in
      let walk purpose =
        List.hd
          (Simulate.walks spec sys.default_scenario
             { Simulate.max_depth = 15; purpose } ~seed ~count:1)
      in
      let checked = walk Check and conform = walk Conform in
      checked.violation = None
      && List.equal Trace.equal_event checked.events conform.events
      && List.length conform.observations = conform.depth
      && List.for_all
           (fun obs -> Tla.Value.field obs "nodes" <> None)
           conform.observations)

let test_wraft9_blocks_elections () =
  (* the modeling-stage bug: a candidate advertising a zero last-log term
     is refused by any voter that holds entries, so re-election after log
     replication never succeeds *)
  let scenario =
    Scenario.v ~name:"wraft9" ~nodes:2 ~workload:[ 1 ]
      [ "timeouts", 4; "requests", 1; "crashes", 0; "restarts", 0;
        "partitions", 0; "drops", 0; "dups", 0; "buffer", 3 ]
  in
  let script =
    let open Script in
    [ timeout 0 "election";
      deliver ~src:0 ~dst:1;
      deliver ~src:1 ~dst:0;  (* n1 leads term 1 *)
      client 0;
      timeout 0 "heartbeat";
      deliver ~src:0 ~dst:1;
      deliver ~src:1 ~dst:0;  (* entry replicated: both logs non-empty *)
      timeout 1 "election";   (* n2 advertises last-log term 0 (wraft9) *)
      deliver ~src:1 ~dst:0;
      deliver ~src:0 ~dst:1 ]
  in
  let leader_role obs node =
    match Tla.Value.field obs "nodes" with
    | Some nodes -> (
      match Tla.Value.find nodes (Tla.Value.str node) with
      | Some rec_ -> Tla.Value.field rec_ "role"
      | None -> None)
    | None -> None
  in
  let final_role flags =
    let spec = (R.find "wraft").spec (Bug.flags flags) in
    match Script.run spec scenario script with
    | Error f -> Alcotest.failf "script failed: %a" Script.pp_failure f
    | Ok trace -> (
      match Spec.observations_along spec scenario trace with
      | Some observations ->
        leader_role (List.nth observations (List.length observations - 1)) "n2"
      | None -> Alcotest.fail "trace must replay")
  in
  Alcotest.(check bool) "wraft9 candidate stays unelected" true
    (final_role [ "wraft9" ] = Some (Tla.Value.str "candidate"));
  Alcotest.(check bool) "fixed candidate wins" true
    (final_role [] = Some (Tla.Value.str "leader"))

let test_lin_cache_crosses_limit () =
  (* two domains each ask about more distinct histories than the
     linearizability memo holds, so each domain's table is emptied at
     least once; every answer must still be the checker's own *)
  let module X = Systems.Xraft_family in
  let history v =
    (* odd v: the read returns a value never written *)
    Linearize.
      [ { op = Put { key = 1; value = v }; invoked = 1; responded = 2;
          result = None };
        { op = Get { key = 1 }; invoked = 3; responded = 4;
          result = Some (v + (v land 1)) } ]
  in
  let answers_right v =
    X.linearizable ~pending:[] (history v) = (v land 1 = 0)
  in
  let sweep () =
    let wrong = ref 0 in
    for v = 0 to X.lin_cache_limit + X.lin_cache_limit / 2 do
      if not (answers_right v) then incr wrong;
      (* past the limit, entries emptied out are recomputed, not lost *)
      if v >= X.lin_cache_limit && not (answers_right (v land 7)) then
        incr wrong
    done;
    !wrong
  in
  let other = Domain.spawn sweep in
  let here = sweep () in
  Alcotest.(check int) "answers past the limit, this domain" 0 here;
  Alcotest.(check int) "answers past the limit, other domain" 0
    (Domain.join other)

let suite =
  ( "systems",
    [ case "init nonempty" test_init_nonempty;
      case "next deterministic" test_next_deterministic;
      case "successors agree with next" test_successors_agree_with_next;
      case "resolved budget bounds" test_resolved_bounds;
      case "events uniquely identify transitions" test_events_unique;
      case "permute identity" test_permute_identity;
      case "canonical fingerprint class" test_permute_fingerprint_class;
      case "node_key equivariant along walks" test_node_key_equivariant;
      case "permute commutes with next" test_permute_commutes_with_next;
      case "observation shape" test_observe_has_nodes_and_net;
      case "initial states satisfy invariants" test_initial_invariants_hold;
      case "wraft9 blocks re-election (modeling bug)" test_wraft9_blocks_elections;
      case "xraft-kv linearizability memo past its limit"
        test_lin_cache_crosses_limit;
      QCheck_alcotest.to_alcotest prop_walks_well_formed ] )
