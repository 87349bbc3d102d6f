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
            && a.violation = b.violation))
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
  let set = Par.Shard_set.create () in
  let fps = Array.init 500 (fun i -> Fingerprint.of_state (i mod 250)) in
  Par.Pool.with_pool 4 (fun pool ->
      Par.Pool.run pool (fun w ->
          Array.iteri
            (fun i fp ->
              if i mod 4 = w then
                ignore
                  (Par.Shard_set.add_seed set fp (Fp_store.Proot i) ~depth:0))
            fps));
  Alcotest.(check int) "distinct" 250 (Par.Shard_set.length set);
  let stats = Par.Shard_set.stats set in
  Alcotest.(check int) "shards" 64 (Array.length stats);
  let entries =
    Array.fold_left (fun n (s : Par.Shard_set.stat) -> n + s.s_entries) 0 stats
  in
  Alcotest.(check int) "stat entries" 250 entries;
  (* every fingerprint is present and kept the provenance of one of its
     two concurrent inserts *)
  Array.iteri
    (fun i fp ->
      match Par.Shard_set.find_prov_opt set fp with
      | Some (Explorer.Root k) ->
        Alcotest.(check int) "first insert's root" (i mod 250) (k mod 250)
      | _ -> Alcotest.failf "fingerprint %d missing" i)
    fps

(* an arrival, as the strict engine makes one: [slot] names where it keeps
   the arrival's state *)
let merge_state set fp ~prov ~depth ~pos slot =
  Par.Shard_set.merge set fp ~prov ~depth ~pos ~slot

let test_shard_set_merge_keeps_min () =
  let set = Par.Shard_set.create () in
  let fp = Fingerprint.of_state "x" in
  let parent = Fingerprint.of_state "parent" in
  let pref =
    Option.get (Par.Shard_set.add_seed set parent (Fp_store.Proot 0) ~depth:1)
  in
  let step n = Fp_store.Pstep (pref, Trace.Timeout { node = n; kind = "t" }) in
  let r =
    match merge_state set fp ~prov:(step 9) ~depth:2 ~pos:(1, 0) 1 with
    | Par.Shard_set.Fresh r -> r
    | _ -> Alcotest.fail "first insert must be fresh"
  in
  Alcotest.(check int) "fresh arrival's slot" 1 (Par.Shard_set.arrival set r);
  (* same depth, smaller pos: replaces prov, pos and slot together and
     names the displaced edge so the profiler can re-attribute it *)
  (match merge_state set fp ~prov:(step 3) ~depth:2 ~pos:(0, 1) 2 with
  | Par.Shard_set.Dup_replaced
      { entry; old_event = Some (Trace.Timeout { node; _ }); old_depth } ->
    Alcotest.(check int) "displaced entry" r entry;
    Alcotest.(check int) "displaced event" 9 node;
    Alcotest.(check int) "displaced depth" 2 old_depth
  | _ -> Alcotest.fail "expected Dup_replaced naming the displaced edge");
  (* larger pos: existing minimal entry is retained *)
  Alcotest.(check bool) "larger pos ignored" true
    (merge_state set fp ~prov:(step 7) ~depth:2 ~pos:(0, 2) 3
     = Par.Shard_set.Dup_kept);
  (match Par.Shard_set.find_prov_opt set fp with
  | Some (Explorer.Step { parent = p; event = Trace.Timeout { node; _ } }) ->
    Alcotest.(check bool) "parent kept" true (Fingerprint.equal p parent);
    Alcotest.(check int) "minimal event kept" 3 node
  | _ -> Alcotest.fail "expected a step provenance");
  Alcotest.(check int) "minimal arrival's slot kept" 2
    (Par.Shard_set.arrival set r);
  Alcotest.(check (pair int int)) "pos still readable" (0, 1)
    (Par.Shard_set.find_pos set r);
  Alcotest.(check int) "a seeded entry has no arrival" (-1)
    (Par.Shard_set.arrival set pref);
  (* a reference past its shard's entries fails closed, naming it *)
  let bogus = r + (1000 lsl 6) in
  let refused =
    Invalid_argument (Fmt.str "Shard_set: no entry for reference %d" bogus)
  in
  Alcotest.check_raises "fp" refused (fun () ->
      ignore (Par.Shard_set.fp set bogus));
  Alcotest.check_raises "depth" refused (fun () ->
      ignore (Par.Shard_set.depth set bogus));
  Alcotest.check_raises "find_pos" refused (fun () ->
      ignore (Par.Shard_set.find_pos set bogus));
  Alcotest.check_raises "arrival" refused (fun () ->
      ignore (Par.Shard_set.arrival set bogus))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- the visited stores against a table model ------------------------- *)

(* Random add_seed/merge sequences, differentially checked against a
   Fingerprint.Tbl model. Keys are built into two shards only (shard_key
   reads bits 47-52 of [hi]), so a shard outgrows its initial 512-entry
   columns and 1024 slots and the merge's side columns must follow, while
   about half the parents sit in the other shard. The same sequence drives
   an Fp_store through [add], where every insert is first-arrival. *)

type store_op =
  | Seed of int * int * int * int  (* key, parent pick, event node, depth *)
  | Merge of int * int * int * int * (int * int)  (* ... and position *)

let store_key k =
  Fingerprint.of_parts ~hi:(((k land 1) * 37) lsl 47 lor k)
    ~lo:(k * 0x9E3779B1)

let store_ops =
  let open QCheck2.Gen in
  let fields =
    quad (int_bound 1999) (int_range (-3) 3000) (int_bound 9) (int_bound 3)
  in
  (* shrinking a list this long takes minutes; a failure reports its seed *)
  no_shrink
  @@ list_size (int_range 0 4000)
       (oneof
          [ map (fun (k, p, n, d) -> Seed (k, p, n, d)) fields;
            map2
              (fun (k, p, n, d) pos -> Merge (k, p, n, d, pos))
              fields
              (pair (int_bound 40) (int_bound 3)) ])

type model_entry = {
  m_prov : Explorer.provenance;
  m_depth : int;
  m_pos : int * int;
  m_slot : int option;
}

let same_prov (a : Explorer.provenance) (b : Explorer.provenance) =
  match a, b with
  | Root i, Root j -> i = j
  | Step a, Step b ->
    Fingerprint.equal a.parent b.parent && Trace.equal_event a.event b.event
  | _ -> false

(* an Fp_store read the way the sequential explorer reads it: a parent
   index turned back into the parent's fingerprint *)
let fp_store_prov fs = function
  | Fp_store.Proot i -> Explorer.Root i
  | Fp_store.Pstep (p, event) ->
    Explorer.Step { parent = Fp_store.fp fs p; event }

let fp_store_lookup fs fp =
  Option.map
    (fun e -> fp_store_prov fs (Fp_store.prov fs e))
    (Fp_store.find fs fp)

let event_of : Explorer.provenance -> Trace.event option = function
  | Root _ -> None
  | Step { event; _ } -> Some event

(* every model entry comes back through [find_prov] and [depth_of], and
   [iter] visits exactly the model *)
let matches_model model ~find_prov ~depth_of ~iter =
  let seen = ref 0 and ok = ref true in
  iter (fun fp prov d ->
      incr seen;
      match Fingerprint.Tbl.find_opt model fp with
      | Some m -> ok := !ok && same_prov m.m_prov prov && m.m_depth = d
      | None -> ok := false);
  !ok
  && !seen = Fingerprint.Tbl.length model
  && Fingerprint.Tbl.fold
       (fun fp m ok ->
         ok
         && (match find_prov fp with
            | Some p -> same_prov m.m_prov p
            | None -> false)
         && depth_of fp = m.m_depth)
       model true

let run_store_ops ops =
  let set = Par.Shard_set.create () in
  let fs = Fp_store.create ~capacity:16 () in
  let model = Fingerprint.Tbl.create 64 in  (* merge semantics *)
  let first = Fingerprint.Tbl.create 64 in  (* first arrival *)
  let refs = Fingerprint.Tbl.create 64 in
  let order = Array.make (List.length ops) (store_key 0) in
  let n = ref 0 in
  let ok = ref true in
  let expect b = if not b then ok := false in
  List.iteri
    (fun i op ->
      let k, pick, node, depth =
        match op with Seed (k, p, e, d) | Merge (k, p, e, d, _) -> (k, p, e, d)
      in
      let fp = store_key k in
      let event = Trace.Timeout { node; kind = "t" } in
      (* a parent from the entries so far, or a root *)
      let m_prov, set_prov, fs_prov =
        if pick < 0 || !n = 0 then
          let i = abs pick in
          (Explorer.Root i, Fp_store.Proot i, Fp_store.Proot i)
        else
          let parent = order.(pick mod !n) in
          ( Explorer.Step { parent; event },
            Fp_store.Pstep (Fingerprint.Tbl.find refs parent, event),
            Fp_store.Pstep (Option.get (Fp_store.find fs parent), event) )
      in
      let fresh r entry =
        Fingerprint.Tbl.replace model fp entry;
        Fingerprint.Tbl.replace refs fp r;
        order.(!n) <- fp;
        incr n
      in
      (* Fp_store: first arrival wins, entries dense in arrival order *)
      (match
         Fingerprint.Tbl.find_opt first fp, Fp_store.add fs fp fs_prov ~depth
       with
      | None, Fp_store.Fresh e ->
        expect (e = Fingerprint.Tbl.length first);
        Fingerprint.Tbl.replace first fp
          { m_prov; m_depth = depth; m_pos = (0, 0); m_slot = None }
      | Some _, Fp_store.Dup e ->
        expect (Fingerprint.equal (Fp_store.fp fs e) fp)
      | _ -> ok := false);
      match op with
      | Seed _ -> (
        match
          Fingerprint.Tbl.find_opt model fp,
          Par.Shard_set.add_seed set fp set_prov ~depth
        with
        | None, Some r ->
          fresh r { m_prov; m_depth = depth; m_pos = (0, 0); m_slot = None }
        | Some _, None -> ()
        | _ -> ok := false)
      | Merge (_, _, _, _, pos) -> (
        let entry =
          { m_prov; m_depth = depth; m_pos = pos; m_slot = Some i }
        in
        match
          Fingerprint.Tbl.find_opt model fp,
          merge_state set fp ~prov:set_prov ~depth ~pos i
        with
        | None, Par.Shard_set.Fresh r -> fresh r entry
        | Some m, outcome -> (
          let smaller =
            depth < m.m_depth || (depth = m.m_depth && pos < m.m_pos)
          in
          match outcome with
          | Par.Shard_set.Dup_kept -> expect (not smaller)
          | Par.Shard_set.Dup_replaced { entry = r; old_event; old_depth } ->
            (* the displaced edge is named, and provenance, position and
               slot are replaced together *)
            expect smaller;
            expect (r = Fingerprint.Tbl.find refs fp);
            expect (old_depth = m.m_depth);
            expect
              (match old_event, event_of m.m_prov with
              | None, None -> true
              | Some a, Some b -> Trace.equal_event a b
              | _ -> false);
            Fingerprint.Tbl.replace model fp entry
          | Par.Shard_set.Fresh _ -> ok := false)
        | None, _ -> ok := false))
    ops;
  let shard_ref fp = Option.get (Par.Shard_set.find set fp) in
  !ok
  && Par.Shard_set.length set = Fingerprint.Tbl.length model
  && Fingerprint.Tbl.fold
       (fun fp r ok -> ok && Par.Shard_set.find set fp = Some r)
       refs true
  && matches_model model ~find_prov:(Par.Shard_set.find_prov_opt set)
       ~depth_of:(fun fp -> Par.Shard_set.depth set (shard_ref fp))
       ~iter:(Par.Shard_set.iter set)
  && Fingerprint.Tbl.fold
       (fun fp m ok ->
         let r = shard_ref fp in
         ok
         && Par.Shard_set.arrival set r = Option.value ~default:(-1) m.m_slot
         && (m.m_slot = None || Par.Shard_set.find_pos set r = m.m_pos))
       model true
  && matches_model first ~find_prov:(fp_store_lookup fs)
       ~depth_of:(fun fp ->
         Fp_store.depth fs (Option.get (Fp_store.find fs fp)))
       ~iter:(fun f ->
         Fp_store.iter fs (fun _ fp prov d -> f fp (fp_store_prov fs prov) d))

let prop_stores_match_model =
  QCheck2.Test.make ~name:"visited stores match a table model" ~count:30
    store_ops run_store_ops

(* Resume seeds a store from a snapshot whose entries may come children
   first; both stores must give every entry back its provenance and
   depth, and fail closed on a parent that is not there. *)
let test_restore_children_first () =
  let module T = Toy_spec.Make (struct
    let limit = None
  end) in
  let module E = Explorer.Run (T) in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let snap = ref None in
  let opts =
    { Explorer.default with
      symmetry = false;
      max_depth = Some 3;
      on_layer = Some (fun _ s -> snap := Some (Lazy.force s)) }
  in
  ignore (Explorer.check (module T) scenario opts);
  let snap = Option.get !snap in
  let entries = ref [] in
  snap.snap_visited (fun fp prov d -> entries := (fp, prov, d) :: !entries);
  (* discovery order reversed: every child comes before its parent *)
  let children_first entries =
    { snap with
      snap_visited = (fun k -> List.iter (fun (fp, p, d) -> k fp p d) entries) }
  in
  let cross_shard = ref 0 in
  let check_store name ~lookup ~depth_of ~fp_of restore =
    let frontier = restore (children_first !entries) in
    List.iter
      (fun (fp, prov, d) ->
        (match prov with
        | Explorer.Step { parent; _ }
          when Fingerprint.shard_key parent ~mask:63
               <> Fingerprint.shard_key fp ~mask:63 ->
          incr cross_shard
        | _ -> ());
        Alcotest.(check bool) (name ^ ": provenance back") true
          (match lookup fp with Some p -> same_prov p prov | None -> false);
        Alcotest.(check int) (name ^ ": depth back") d (depth_of fp))
      !entries;
    Alcotest.(check int) (name ^ ": frontier") (List.length snap.snap_frontier)
      (List.length frontier);
    List.iter2
      (fun fp (state, r) ->
        Alcotest.(check bool) (name ^ ": frontier reference") true
          (Fingerprint.equal (fp_of r) fp);
        Alcotest.(check bool) (name ^ ": frontier state") true
          (Fingerprint.equal (Fingerprint.of_state ~who:T.name state) fp))
      snap.snap_frontier frontier
  in
  let fresh_fp_store () =
    let fs = Fp_store.create () in
    let lookup = fp_store_lookup fs in
    let restore snap =
      E.restore snap scenario lookup ~add:(Fp_store.add fs)
        ~find:(Fp_store.find fs) ~set_prov:(Fp_store.set_prov fs)
    in
    (fs, lookup, restore)
  in
  let fresh_shard_set () =
    let set = Par.Shard_set.create () in
    let restore snap =
      E.restore snap scenario (Par.Shard_set.find_prov_opt set)
        ~add:(Par.Shard_set.add_seed set) ~find:(Par.Shard_set.find set)
        ~set_prov:(Par.Shard_set.set_prov set)
    in
    (set, restore)
  in
  let fs, lookup, restore = fresh_fp_store () in
  check_store "fp_store" ~lookup
    ~depth_of:(fun fp -> Fp_store.depth fs (Option.get (Fp_store.find fs fp)))
    ~fp_of:(Fp_store.fp fs) restore;
  let set, restore = fresh_shard_set () in
  check_store "shard_set" ~lookup:(Par.Shard_set.find_prov_opt set)
    ~depth_of:(fun fp ->
      Par.Shard_set.depth set (Option.get (Par.Shard_set.find set fp)))
    ~fp_of:(Par.Shard_set.fp set) restore;
  let iterated = ref 0 in
  Par.Shard_set.iter set (fun fp prov d ->
      incr iterated;
      Alcotest.(check bool) "iter gives the snapshot entry" true
        (List.exists
           (fun (fp', prov', d') ->
             Fingerprint.equal fp fp' && same_prov prov prov' && d = d')
           !entries));
  Alcotest.(check int) "iter visits every entry" (List.length !entries)
    !iterated;
  Alcotest.(check bool) "some parents sit in another shard" true
    (!cross_shard > 0);
  (* without the root every depth-1 entry's parent is missing *)
  let rootless =
    children_first
      (List.filter
         (fun (_, prov, _) ->
           match prov with Explorer.Root _ -> false | Explorer.Step _ -> true)
         !entries)
  in
  let refuses name restore =
    match restore rootless with
    | _ -> Alcotest.failf "%s restored a snapshot without its root" name
    | exception Invalid_argument m ->
      Alcotest.(check bool) (name ^ " names the missing parent") true
        (contains m "missing from its visited set")
  in
  let _, _, restore = fresh_fp_store () in
  refuses "fp_store" restore;
  let _, restore = fresh_shard_set () in
  refuses "shard_set" restore

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
      QCheck_alcotest.to_alcotest prop_stores_match_model;
      case "stores restore children before parents"
        test_restore_children_first;
      case "pool barrier runs every worker" test_pool_runs_all_workers;
      case "pool propagates worker exceptions" test_pool_propagates_exceptions;
      case "fingerprinting a closure names the spec"
        test_fingerprint_closure_error ] )
