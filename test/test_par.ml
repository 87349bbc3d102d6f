(* Equivalence of the parallel engine (lib/par) with the sequential one:
   same distinct/generated/max_depth counters, same outcome, same violation
   depth and trace, at every worker count — plus determinism of parallel
   simulation and the shard-set / pool primitives they build on. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f
let worker_counts = [ 1; 2; 4 ]

let counters (r : Explorer.result) = r.distinct, r.generated, r.max_depth

let check_counters label seq (par : Par.Par_explorer.result) =
  Alcotest.(check (triple int int int)) label (counters seq) (counters par.base)

let test_toy_exhaustive_equivalence () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
  let spec = Toy_spec.spec () in
  List.iter
    (fun symmetry ->
      let opts = { Explorer.default with symmetry } in
      let seq = Explorer.check spec scenario opts in
      List.iter
        (fun workers ->
          let par = Par.Par_explorer.check ~workers spec scenario opts in
          (match par.base.outcome with
          | Explorer.Exhausted -> ()
          | _ -> Alcotest.fail "parallel run should exhaust");
          check_counters
            (Fmt.str "counters sym=%b workers=%d" symmetry workers)
            seq par)
        worker_counts)
    [ false; true ]

let test_toy_violation_equivalence () =
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let spec = Toy_spec.spec ~limit:3 () in
  let seq = Explorer.check spec scenario Explorer.default in
  let sv =
    match seq.outcome with
    | Explorer.Violation v -> v
    | _ -> Alcotest.fail "sequential run must violate"
  in
  List.iter
    (fun workers ->
      let par =
        Par.Par_explorer.check ~workers spec scenario Explorer.default
      in
      match par.base.outcome with
      | Explorer.Violation pv ->
        let l = Fmt.str "workers=%d" workers in
        Alcotest.(check string) (l ^ " invariant") sv.invariant pv.invariant;
        Alcotest.(check int) (l ^ " depth") sv.depth pv.depth;
        Alcotest.(check string) (l ^ " state") sv.state_repr pv.state_repr;
        Alcotest.(check bool) (l ^ " trace") true
          (List.length sv.events = List.length pv.events
          && List.for_all2 Trace.equal_event sv.events pv.events);
        check_counters (l ^ " counters") seq par
      | _ -> Alcotest.fail "parallel run must violate")
    worker_counts

let test_toy_deadlock_equivalence () =
  let scenario = Toy_spec.scenario ~nodes:1 ~timeouts:2 in
  let opts = { Explorer.default with check_deadlock = true } in
  let seq = Explorer.check (Toy_spec.spec ()) scenario opts in
  List.iter
    (fun workers ->
      let par =
        Par.Par_explorer.check ~workers (Toy_spec.spec ()) scenario opts
      in
      match seq.outcome, par.base.outcome with
      | Explorer.Deadlock se, Explorer.Deadlock pe ->
        Alcotest.(check int)
          (Fmt.str "deadlock trace workers=%d" workers)
          (List.length se.events) (List.length pe.events);
        check_counters (Fmt.str "counters workers=%d" workers) seq par
      | _ -> Alcotest.fail "both runs must deadlock")
    worker_counts

let test_toy_depth_budget_equivalence () =
  (* max_depth stops at a layer boundary in both engines, so even the
     budget-stop counters must agree exactly *)
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:20 in
  let opts =
    { Explorer.default with max_depth = Some 3; symmetry = false }
  in
  let seq = Explorer.check (Toy_spec.spec ()) scenario opts in
  List.iter
    (fun workers ->
      let par =
        Par.Par_explorer.check ~workers (Toy_spec.spec ()) scenario opts
      in
      (match par.base.outcome with
      | Explorer.Budget_spent -> ()
      | _ -> Alcotest.fail "expected budget stop");
      check_counters (Fmt.str "counters workers=%d" workers) seq par)
    worker_counts

let test_buggy_system_equivalence () =
  (* a real registry system with an injected protocol bug: the parallel
     engine must find the same minimal-depth violation with the same
     sequential-equivalent counters *)
  let module R = Systems.Registry in
  let sys = R.find "raftos" in
  let info =
    List.find (fun (b : Systems.Bug.info) -> b.flags = [ "raftos1" ]) sys.bugs
  in
  let spec = sys.spec (Systems.Bug.flags info.flags) in
  let opts =
    { Explorer.default with
      only_invariants = Some [ "MatchIndexMonotonic" ];
      time_budget = Some 120. }
  in
  let seq = Explorer.check spec info.scenario opts in
  let sv =
    match seq.outcome with
    | Explorer.Violation v -> v
    | _ -> Alcotest.fail "sequential run must violate"
  in
  List.iter
    (fun workers ->
      let par = Par.Par_explorer.check ~workers spec info.scenario opts in
      match par.base.outcome with
      | Explorer.Violation pv ->
        let l = Fmt.str "workers=%d" workers in
        Alcotest.(check string) (l ^ " invariant") sv.invariant pv.invariant;
        Alcotest.(check int) (l ^ " depth") sv.depth pv.depth;
        Alcotest.(check bool) (l ^ " trace") true
          (List.length sv.events = List.length pv.events
          && List.for_all2 Trace.equal_event sv.events pv.events);
        check_counters (l ^ " counters") seq par
      | _ -> Alcotest.fail "parallel run must violate")
    worker_counts

let trace_bytes events =
  let b = Binio.sink () in
  List.iter (Trace.encode_event b) events;
  Binio.contents b

let test_registry_sweep_equivalence () =
  (* every integrated system, clean spec, shallow layer-aligned budget:
     the two engines must agree exactly on (distinct, generated, max_depth)
     at every worker count. max_depth stops at a layer boundary, so even
     these budget-stopped counters are deterministic. *)
  let module R = Systems.Registry in
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec (Systems.Bug.flags []) in
      let opts = { Explorer.default with max_depth = Some 2 } in
      let seq = Explorer.check spec sys.table3_scenario opts in
      Alcotest.(check bool)
        (sys.name ^ " explores something") true (seq.generated > 0);
      List.iter
        (fun workers ->
          let par =
            Par.Par_explorer.check ~workers spec sys.table3_scenario opts
          in
          check_counters (Fmt.str "%s workers=%d" sys.name workers) seq par)
        worker_counts)
    R.all

let test_violation_trace_bytes_equal () =
  (* the counterexample must agree down to its serialized bytes — the
     strongest cross-engine equivalence we can assert, and what replay
     scripts and the shrinker consume *)
  let module R = Systems.Registry in
  let sys = R.find "daosraft" in
  let info =
    List.find (fun (b : Systems.Bug.info) -> b.flags = [ "daos1" ]) sys.bugs
  in
  let spec = sys.spec (Systems.Bug.flags info.flags) in
  let opts = { Explorer.default with time_budget = Some 120. } in
  let seq = Explorer.check spec info.scenario opts in
  let sv =
    match seq.outcome with
    | Explorer.Violation v -> v
    | _ -> Alcotest.fail "sequential run must violate"
  in
  List.iter
    (fun workers ->
      let par = Par.Par_explorer.check ~workers spec info.scenario opts in
      match par.base.outcome with
      | Explorer.Violation pv ->
        Alcotest.(check string)
          (Fmt.str "trace bytes workers=%d" workers)
          (Digest.to_hex (Digest.string (trace_bytes sv.events)))
          (Digest.to_hex (Digest.string (trace_bytes pv.events)));
        Alcotest.(check (list string))
          (Fmt.str "labels workers=%d" workers)
          sv.labels pv.labels;
        check_counters (Fmt.str "counters workers=%d" workers) seq par
      | _ -> Alcotest.fail "parallel run must violate")
    worker_counts

let test_symmetry_collision_provenance () =
  (* regression: under symmetry reduction, distinct concrete states collide
     on one canonical fingerprint within a layer; the frontier must carry
     the variant whose provenance the table kept (the minimal-pos one) or
     violation replay crashes ("unreplayable provenance chain") / reports a
     variant the sequential engine would not. The race only opens at >= 2
     workers, so repeat the run to widen its window. *)
  let scenario = Toy_spec.scenario ~nodes:4 ~timeouts:10 in
  let spec = Toy_spec.spec ~limit:5 () in
  let opts = { Explorer.default with symmetry = true } in
  let seq = Explorer.check spec scenario opts in
  let sv =
    match seq.outcome with
    | Explorer.Violation v -> v
    | _ -> Alcotest.fail "sequential run must violate"
  in
  for round = 1 to 10 do
    List.iter
      (fun workers ->
        let par = Par.Par_explorer.check ~workers spec scenario opts in
        match par.base.outcome with
        | Explorer.Violation pv ->
          let l = Fmt.str "round %d workers=%d" round workers in
          Alcotest.(check string) (l ^ " state") sv.state_repr pv.state_repr;
          Alcotest.(check bool) (l ^ " trace") true
            (List.length sv.events = List.length pv.events
            && List.for_all2 Trace.equal_event sv.events pv.events);
          check_counters (l ^ " counters") seq par
        | _ -> Alcotest.fail "parallel run must violate")
      [ 2; 4 ]
  done

let test_simulate_seed_stable () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:8 in
  let spec = Toy_spec.spec ~limit:6 () in
  let opts = { Simulate.default with max_depth = 12 } in
  let run workers =
    Par.Par_simulate.walks ~workers spec scenario opts ~seed:42 ~count:40
  in
  let reference = run 1 in
  Alcotest.(check int) "count" 40 (List.length reference);
  List.iter
    (fun workers ->
      let ws = run workers in
      List.iteri
        (fun i (a, b) ->
          let a : Simulate.walk = a and b : Simulate.walk = b in
          Alcotest.(check bool)
            (Fmt.str "walk %d identical at %d workers" i workers)
            true
            (List.length a.events = List.length b.events
            && List.for_all2 Trace.equal_event a.events b.events
            && a.violation = b.violation
            && a.deadlocked = b.deadlocked))
        (List.combine reference ws))
    [ 2; 4 ];
  (* a different root seed must give different walks *)
  let other =
    Par.Par_simulate.walks ~workers:1 spec scenario opts ~seed:7 ~count:40
  in
  Alcotest.(check bool) "seed matters" true
    (List.exists2
       (fun (a : Simulate.walk) (b : Simulate.walk) ->
         List.length a.events <> List.length b.events
         || not (List.for_all2 Trace.equal_event a.events b.events))
       reference other)

let test_simulate_aggregate_matches () =
  (* parallel walks feed the same aggregation pipeline *)
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let spec = Toy_spec.spec () in
  let ws =
    Par.Par_simulate.walks ~workers:4 spec scenario Simulate.default ~seed:5
      ~count:10
  in
  let agg = Simulate.aggregate ws in
  Alcotest.(check int) "runs" 10 agg.runs;
  Alcotest.(check int) "both tick branches covered" 2
    (Coverage.cardinal agg.union_coverage)

let test_shard_set_concurrent () =
  let set : int Par.Shard_set.t = Par.Shard_set.create ~shards:8 () in
  let fps = Array.init 500 (fun i -> Fingerprint.of_state (i mod 250)) in
  Par.Pool.with_pool 4 (fun pool ->
      Par.Pool.run pool (fun w ->
          Array.iteri
            (fun i fp ->
              if i mod 4 = w then
                ignore
                  (Par.Shard_set.add_seed set fp (Explorer.Root i) ~depth:0))
            fps));
  Alcotest.(check int) "distinct" 250 (Par.Shard_set.length set);
  let stats = Par.Shard_set.stats set in
  Alcotest.(check int) "shards" 8 (Array.length stats);
  let entries =
    Array.fold_left (fun n (s : Par.Shard_set.stat) -> n + s.s_entries) 0 stats
  in
  Alcotest.(check int) "stat entries" 250 entries;
  (* every fingerprint is present and kept its first-inserted provenance *)
  Array.iter
    (fun fp -> Alcotest.(check bool) "mem" true (Par.Shard_set.mem set fp))
    fps

let test_shard_set_merge_keeps_min () =
  let set : string Par.Shard_set.t = Par.Shard_set.create ~shards:4 () in
  let fp = Fingerprint.of_state "x" in
  let parent = Fingerprint.of_state "parent" in
  let step n =
    Explorer.Step { parent; event = Trace.Timeout { node = n; kind = "t" } }
  in
  Alcotest.(check bool) "first insert" true
    (Par.Shard_set.merge set fp ~prov:(step 9) ~depth:2 ~pos:(1, 0)
       ~state:"late"
     = Par.Shard_set.Fresh);
  (* same depth, smaller pos: replaces prov, pos and state together and
     names the displaced edge so the profiler can re-attribute it *)
  (match
     Par.Shard_set.merge set fp ~prov:(step 3) ~depth:2 ~pos:(0, 1)
       ~state:"early"
   with
  | Par.Shard_set.Dup_replaced
      { old_event = Some (Trace.Timeout { node; _ }); old_depth } ->
    Alcotest.(check int) "displaced event" 9 node;
    Alcotest.(check int) "displaced depth" 2 old_depth
  | _ -> Alcotest.fail "expected Dup_replaced naming the displaced edge");
  (* larger pos: existing minimal entry is retained *)
  Alcotest.(check bool) "larger pos ignored" true
    (Par.Shard_set.merge set fp ~prov:(step 7) ~depth:2 ~pos:(0, 2)
       ~state:"later"
     = Par.Shard_set.Dup_kept);
  (match Par.Shard_set.find_prov_opt set fp with
  | Some (Explorer.Step { parent = p; event = Trace.Timeout { node; _ } }) ->
    Alcotest.(check bool) "parent kept" true (Fingerprint.equal p parent);
    Alcotest.(check int) "minimal event kept" 3 node
  | _ -> Alcotest.fail "expected a step provenance");
  Alcotest.(check (pair (pair int int) string))
    "minimal pos and its state kept" ((0, 1), "early")
    (match Par.Shard_set.take_state set fp with
    | Some r -> r
    | None -> Alcotest.fail "state missing");
  Alcotest.(check bool) "state taken at most once" true
    (Par.Shard_set.take_state set fp = None);
  Alcotest.(check (pair int int)) "pos still readable" (0, 1)
    (Par.Shard_set.find_pos set fp)

let test_pool_runs_all_workers () =
  let hits = Array.make 4 0 in
  Par.Pool.with_pool 4 (fun pool ->
      for _ = 1 to 3 do
        Par.Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1)
      done);
  Alcotest.(check (list int)) "every worker ran every job" [ 3; 3; 3; 3 ]
    (Array.to_list hits)

let test_pool_propagates_exceptions () =
  Par.Pool.with_pool 2 (fun pool ->
      match Par.Pool.run pool (fun w -> if w = 1 then failwith "boom") with
      | () -> Alcotest.fail "expected exception"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_fingerprint_closure_error () =
  (match Fingerprint.of_state ~who:"toy-closure-spec" (fun x -> x + 1) with
  | _ -> Alcotest.fail "closures must not fingerprint"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the spec" true
      (contains msg "toy-closure-spec");
    Alcotest.(check bool) "explains the cause" true (contains msg "closure"));
  (* pure data still fingerprints, with or without attribution *)
  Alcotest.(check bool) "pure data ok" true
    (Fingerprint.equal
       (Fingerprint.of_state ~who:"spec" (1, [ "a" ]))
       (Fingerprint.of_state (1, [ "a" ])))

let suite =
  ( "par",
    [ case "toy exhaustive equivalence (1/2/4 workers)"
        test_toy_exhaustive_equivalence;
      case "toy violation equivalence" test_toy_violation_equivalence;
      case "toy deadlock equivalence" test_toy_deadlock_equivalence;
      case "depth budget equivalence" test_toy_depth_budget_equivalence;
      case "buggy registry system equivalence" test_buggy_system_equivalence;
      case "registry-wide sweep equivalence (1/2/4 workers)"
        test_registry_sweep_equivalence;
      case "violation trace bytes identical across engines"
        test_violation_trace_bytes_equal;
      case "symmetry-collision provenance stays replayable"
        test_symmetry_collision_provenance;
      case "simulation is seed-stable across worker counts"
        test_simulate_seed_stable;
      case "parallel walks aggregate like sequential ones"
        test_simulate_aggregate_matches;
      case "shard set under concurrent insertion" test_shard_set_concurrent;
      case "shard set merge keeps minimum" test_shard_set_merge_keeps_min;
      case "pool barrier runs every worker" test_pool_runs_all_workers;
      case "pool propagates worker exceptions" test_pool_propagates_exceptions;
      case "fingerprinting a closure names the spec"
        test_fingerprint_closure_error ] )
