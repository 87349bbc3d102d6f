(* The engines against an uncached reference BFS. The reference is built
   here from public functions only — [S.next], [S.invariants],
   [Symmetry.canonical_fp ~key:S.node_key] and [Fingerprint.Tbl] — with no
   visited store, orbit cache or parallelism, so it checks that the orbit
   cache (a successor whose concrete state its worker already
   canonicalised is a duplicate) changes no count, verdict or trace in any
   engine. Also: exhaustive checks running on two domains at once agree
   with the sequential one (no cache or spec state leaks between runs). *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let case name f = Alcotest.test_case name `Quick f

type reference = {
  distinct : int;
  generated : int;
  concrete : int;  (** distinct own (unpermuted) successor fingerprints *)
  events_digest : string;
      (** hex digest of every successor's [Trace.serialize_event], in
          [S.next] order *)
  states_digest : string;
      (** hex digest of every successor's own [Fingerprint.of_state], in
          [S.next] order: it pins the successor's marshalled bytes *)
  violation : (string * int * Trace.t) option;
}

(* Sequential BFS in [Explorer.check]'s discovery order: every successor
   counts as generated, a fresh one is checked against every invariant and
   queued if it satisfies the constraint; the first broken invariant
   stops the search. States are merged by orbit when the spec is
   permutable, unless [symmetry] is false. *)
let reference_bfs ?(symmetry = true) (spec : Spec.t) scenario =
  let (module S) = spec in
  let canonical s =
    if symmetry && S.permutable then
      Symmetry.canonical_fp ~key:S.node_key ~permute:S.permute
        ~nodes:scenario.Scenario.nodes s
    else Fingerprint.of_state s
  in
  let parents = Fingerprint.Tbl.create 4096 in
  let concrete = Fingerprint.Tbl.create 4096 in
  let queue = Queue.create () in
  let generated = ref 0 in
  let events = Buffer.create 4096 and states = Buffer.create 4096 in
  let exception Broken of string * Fingerprint.t * int in
  let trace fp =
    let rec back fp acc =
      match Fingerprint.Tbl.find parents fp with
      | None -> acc
      | Some (parent, event) -> back parent (event :: acc)
    in
    back fp []
  in
  let discover parent depth s =
    let fp = canonical s in
    if not (Fingerprint.Tbl.mem parents fp) then begin
      Fingerprint.Tbl.add parents fp parent;
      (match List.find_opt (fun (_, holds) -> not (holds scenario s)) S.invariants
       with
      | Some (name, _) -> raise (Broken (name, fp, depth))
      | None -> ());
      if S.constraint_ok scenario s then Queue.add (s, fp, depth) queue
    end
  in
  let violation =
    try
      List.iter (discover None 0) (S.init scenario);
      while not (Queue.is_empty queue) do
        let s, fp, depth = Queue.pop queue in
        List.iter
          (fun (event, s') ->
            incr generated;
            let own = Fingerprint.of_state s' in
            Buffer.add_string events (Trace.serialize_event event);
            Buffer.add_char events '\n';
            Buffer.add_string states (Fingerprint.to_raw own);
            Fingerprint.Tbl.replace concrete own ();
            discover (Some (fp, event)) (depth + 1) s')
          (S.next scenario s)
      done;
      None
    with Broken (name, fp, depth) -> Some (name, depth, trace fp)
  in
  let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  { distinct = Fingerprint.Tbl.length parents;
    generated = !generated;
    concrete = Fingerprint.Tbl.length concrete;
    events_digest = digest events;
    states_digest = digest states;
    violation }

let engines =
  [ ("seq", fun spec scenario opts -> Explorer.check spec scenario opts);
    ( "strict-bfs -j2",
      fun spec scenario opts ->
        (Par.Par_explorer.check ~workers:2 spec scenario opts).base );
    ( "ws -j2",
      fun spec scenario opts ->
        (Par.Ws_explorer.check ~workers:2 spec scenario opts).base ) ]

let expect_totals label (reference : reference) (r : Explorer.result) =
  (match r.outcome with
  | Explorer.Exhausted -> ()
  | _ -> Alcotest.failf "%s: run should exhaust" label);
  Alcotest.(check (pair int int))
    (label ^ " distinct/generated")
    (reference.distinct, reference.generated)
    (r.distinct, r.generated)

let tiny_scenario (sys : R.t) =
  Scenario.v ~name:(sys.name ^ "-tiny3") ~nodes:3 ~workload:[ 1 ]
    [ ("timeouts", 2); ("requests", 1); ("crashes", 0); ("restarts", 0);
      ("partitions", 0); ("buffer", 2); ("drops", 0); ("dups", 0);
      ("epochs", 1) ]

let permutable (sys : R.t) =
  let (module S : Spec.S) = sys.spec Bug.Flags.empty in
  S.permutable

let test_every_system_every_engine () =
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec Bug.Flags.empty in
      let scenario = tiny_scenario sys in
      let reference = reference_bfs spec scenario in
      List.iter
        (fun (engine, run) ->
          expect_totals
            (Fmt.str "%s %s" sys.name engine)
            reference
            (run spec scenario Explorer.default))
        engines)
    (List.filter permutable R.all)

(* The bench's explore-sym space: 51,334 distinct concrete states against
   the cache's 16,384 entries, so entries are evicted and replaced. *)
let test_explore_sym_space () =
  let spec = (R.find "pysyncobj").spec Bug.Flags.empty in
  let scenario =
    Scenario.v ~name:"pysyncobj-bench" ~nodes:3 ~workload:[ 1; 2 ]
      [ ("timeouts", 3); ("requests", 2); ("crashes", 1); ("restarts", 1);
        ("partitions", 0); ("buffer", 3) ]
  in
  let reference = reference_bfs spec scenario in
  Alcotest.(check (pair int int)) "reference totals" (42_758, 158_778)
    (reference.distinct, reference.generated);
  Alcotest.(check int) "distinct concrete states" 51_334 reference.concrete;
  List.iter
    (fun (engine, run) ->
      expect_totals engine reference (run spec scenario Explorer.default))
    engines

(* Successor order and successor bytes, pinned for every registered
   system on a 2-node scenario with every fault kind enabled: [distinct]
   and [generated] from the reference BFS without symmetry, a digest of
   each successor's event in [S.next] order and one of its own
   fingerprint. A reordered [next], a renamed event or a successor that
   marshals to other bytes moves a digest; fingerprints, symmetry
   representatives, [fp.bytes] and checkpoint bytes all follow from those
   bytes. *)
let test_successor_order_pinned () =
  let scenario (sys : R.t) =
    Scenario.v ~name:(sys.name ^ "-faults2") ~nodes:2 ~workload:[ 1 ]
      [ ("timeouts", 3); ("requests", 1); ("crashes", 1); ("restarts", 1);
        ("partitions", 1); ("drops", 1); ("dups", 1); ("buffer", 2) ]
  in
  let pinned =
    [ ( "pysyncobj",
        ( 2_771, 6_582, "45e20ff2708ed1ee9bd6f0130eec2e1a",
          "959c8c7ede085b09f496d8381a098448" ) );
      ( "wraft",
        ( 39_780, 157_482, "d0635b8b0a7cf65fdd48be8a8448d88b",
          "204255bdb06833fc21a4f7ed022e63cf" ) );
      ( "redisraft",
        ( 4_811, 12_080, "1c4e949b6d9c4157dfdb78588d5be622",
          "8c14cf66e44a6b546255c1e55a8ad3bd" ) );
      ( "daosraft",
        ( 4_811, 12_080, "1c4e949b6d9c4157dfdb78588d5be622",
          "8c14cf66e44a6b546255c1e55a8ad3bd" ) );
      ( "raftos",
        ( 39_574, 156_826, "1fa9e2c4c36bc041014ef4e696f12577",
          "94897929839c70c1a35c0c07a7889bc5" ) );
      ( "xraft",
        ( 4_811, 12_080, "1c4e949b6d9c4157dfdb78588d5be622",
          "92e625c5f7311db5592194a2e365fee1" ) );
      ( "xraft-kv",
        ( 4_160, 9_762, "b0d4e92a1a2ba6374eb9455d9eef8c92",
          "0a7a3633301fd210182e55877a2d63b8" ) );
      ( "zookeeper",
        ( 10_498, 21_543, "081db7d0c3f4fcdf2bf8b2a20833ea85",
          "9602377462c6912b714e7a7adeda0c63" ) ) ]
  in
  Alcotest.(check (list string)) "every registered system is pinned"
    (List.map (fun (sys : R.t) -> sys.name) R.all)
    (List.map fst pinned);
  List.iter
    (fun (name, expected) ->
      let sys = R.find name in
      let r =
        reference_bfs ~symmetry:false (sys.spec Bug.Flags.empty) (scenario sys)
      in
      let distinct, generated, events, states = expected in
      Alcotest.(check (pair int int))
        (name ^ " distinct/generated")
        (distinct, generated) (r.distinct, r.generated);
      Alcotest.(check string) (name ^ " event digest") events r.events_digest;
      Alcotest.(check string) (name ^ " state digest") states r.states_digest)
    pinned

(* A violation found through the cache keeps the reference's minimal depth
   and counterexample. The work-stealing engine's depth and trace depend
   on the schedule at -j2, so it is held to them at one worker. *)
let test_bug_traces () =
  let exact =
    [ ("seq", fun spec scenario opts -> Explorer.check spec scenario opts);
      ( "strict-bfs -j2",
        fun spec scenario opts ->
          (Par.Par_explorer.check ~workers:2 spec scenario opts).base );
      ( "ws -j1",
        fun spec scenario opts ->
          (Par.Ws_explorer.check ~workers:1 spec scenario opts).base ) ]
  in
  List.iter
    (fun (system, flag) ->
      let sys = R.find system in
      let info = List.find (fun (b : Bug.info) -> b.flags = [ flag ]) sys.bugs in
      let spec = sys.spec (Bug.flags [ flag ]) in
      let name, depth, events =
        match (reference_bfs spec info.scenario).violation with
        | Some v -> v
        | None -> Alcotest.failf "%s: reference finds no violation" flag
      in
      List.iter
        (fun (engine, run) ->
          match (run spec info.scenario Explorer.default).Explorer.outcome with
          | Explorer.Violation v ->
            let label what = Fmt.str "%s %s %s" flag engine what in
            Alcotest.(check string) (label "invariant") name v.invariant;
            Alcotest.(check int) (label "depth") depth v.depth;
            Alcotest.(check int) (label "trace length") (List.length events)
              (List.length v.events);
            Alcotest.(check bool) (label "trace") true
              (List.for_all2 Trace.equal_event events v.events)
          | _ -> Alcotest.failf "%s %s: no violation" flag engine)
        exact)
    [ ("pysyncobj", "pso3"); ("daosraft", "daos1") ]

(* The hit ratio depends on the schedule at -j2, so it is reported, never
   counted: a suffix on the worker lines, absent without symmetry. *)
let test_hit_ratio_on_worker_lines () =
  let sys = R.find "pysyncobj" in
  let spec = sys.spec Bug.Flags.empty in
  List.iter
    (fun symmetry ->
      let r =
        Par.Ws_explorer.check ~workers:2 spec (tiny_scenario sys)
          { Explorer.default with symmetry }
      in
      let lines = Fmt.str "%a" Par.Par_explorer.pp_worker_stats r.worker_stats in
      let suffix = "orbit-cache hits=" in
      let n = String.length suffix in
      let rec found i =
        i + n <= String.length lines
        && (String.sub lines i n = suffix || found (i + 1))
      in
      Alcotest.(check bool)
        (Fmt.str "worker-line suffix with symmetry=%b" symmetry)
        symmetry (found 0))
    [ true; false ]

(* Each run owns its caches and spec state: two exhaustive checks on two
   domains at once both reach the sequential totals. *)
let test_concurrent_runs () =
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec Bug.Flags.empty in
      let scenario = tiny_scenario sys in
      let totals (r : Explorer.result) = (r.distinct, r.generated, r.max_depth) in
      let alone = totals (Explorer.check spec scenario Explorer.default) in
      let run () = totals (Explorer.check spec scenario Explorer.default) in
      let a = Domain.spawn run and b = Domain.spawn run in
      let a = Domain.join a and b = Domain.join b in
      let triple = Alcotest.(triple int int int) in
      Alcotest.check triple (sys.name ^ " first domain") alone a;
      Alcotest.check triple (sys.name ^ " second domain") alone b)
    (List.filter permutable R.all)

let suite =
  ( "reference",
    [ case "orbit cache exact: every permutable system, every engine"
        test_every_system_every_engine;
      case "orbit cache exact: explore-sym space with evictions"
        test_explore_sym_space;
      case "orbit cache keeps bug depths and traces" test_bug_traces;
      case "successor order pinned on every system"
        test_successor_order_pinned;
      case "hit ratio on the worker lines" test_hit_ratio_on_worker_lines;
      case "concurrent runs match the sequential one" test_concurrent_runs ] )
