(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the ablations listed in DESIGN.md.

     Table 1 — integrated systems and specification stats
     Table 2 — bug detection effectiveness/efficiency (time, depth, #states)
     Table 3 — state-exploration efficiency (exhaustive + time-budgeted)
     Table 4 — specification-level vs implementation-level speedup
     Fig. 6  — PySyncObj#4 space-time diagram
     Fig. 7  — WRaft#1+#2 data-inconsistency diagram
     Ablations — symmetry reduction, stateful vs stateless, Algorithm 1

   Wall-clock budgets scale with SANDTABLE_BENCH_SCALE (default 1.0; the
   paper's one-machine-day budgets correspond to roughly scale 1000).
   Run a single section with: dune exec bench/main.exe -- table2

   Exit codes: 0 = every requested section ran and reproduced its result,
   1 = a figure's violation was not reproduced, 2 = an unknown section name
   or a bad SANDTABLE_BENCH_SCALE (nothing runs). Engine throughput and
   memory are measured by bench/perf (perf.exe), not here. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "bench/main.exe: %s@." msg;
      exit 2)
    fmt

let scale =
  match Sys.getenv_opt "SANDTABLE_BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0. -> f
    | _ ->
      usage_error
        "SANDTABLE_BENCH_SCALE=%S is not a finite positive number" s)

let budget base = base *. scale
let section_header title = Fmt.pr "@.=== %s ===@." title

(* A section that cannot reproduce the paper's result says so on stdout
   and makes the run exit 1; the remaining sections still run. *)
let failed = ref false

let not_reproduced fmt =
  failed := true;
  Fmt.pr fmt

let hrule widths =
  Fmt.pr "%s@."
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths))

let row widths cells =
  let pad w s =
    let s = if String.length s > w then String.sub s 0 w else s in
    s ^ String.make (w - String.length s) ' '
  in
  Fmt.pr "%s@." (String.concat " | " (List.map2 pad widths cells))

(* ------------------------------------------------------------------ *)
(* Table 1: integrated systems and formal specification effort          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section_header
    "Table 1: integrated systems and formal specifications (paper vs measured)";
  let widths = [ 10; 6; 9; 12; 8; 6; 10; 11 ] in
  row widths
    [ "System"; "Stars"; "Impl LOC"; "SpecLOC p/m"; "#Var(p)"; "#Act";
      "#Inv p/m"; "Effort s/c" ];
  hrule widths;
  List.iter
    (fun (sys : R.t) ->
      let p = sys.paper in
      let mloc =
        match R.measured_spec_loc sys with
        | Some n -> string_of_int n
        | None -> "-"
      in
      row widths
        [ sys.name; p.stars; p.impl_loc;
          Fmt.str "%d/%s" p.spec_loc mloc;
          string_of_int p.vars; string_of_int p.acts;
          Fmt.str "%d/%d" p.invs (R.measured_invariants sys);
          Fmt.str "%d/%d" p.effort_spec p.effort_conf ])
    R.all;
  Fmt.pr
    "(p = paper-reported, m = measured from this repo; effort columns are \
     the paper's person-days)@."

(* ------------------------------------------------------------------ *)
(* Table 2: effectiveness and efficiency in detecting bugs              *)
(* ------------------------------------------------------------------ *)

(* Directed reproduction scripts for bugs whose optimal trace is too deep
   for a short BFS budget (paper-scale budgets find them by BFS as well). *)
let script_for (info : Bug.info) =
  match info.id with
  | "WRaft#2" -> Some (Systems.Wraft.fig7_script, Systems.Wraft.fig7_scenario)
  | "ZooKeeper#1" ->
    Some (Systems.Zookeeper.zk1_script, Systems.Zookeeper.zk1_script_scenario)
  | _ -> None

let verification_row (sys : R.t) (info : Bug.info) invariant =
  let bugs = Bug.flags info.flags in
  let spec = sys.spec bugs in
  let opts =
    { Explorer.default with
      time_budget = Some (budget 30.);
      only_invariants = Some [ invariant ] }
  in
  let result = Explorer.check spec info.scenario opts in
  match result.outcome with
  | Explorer.Violation v ->
    let confirmation =
      Replay.confirm ~mask:Systems.Common.conformance_mask spec
        ~boot:(fun sc -> sys.sut bugs None sc)
        info.scenario v.events
    in
    let confirmed =
      match confirmation with
      | Replay.Confirmed _ -> "confirmed"
      | Replay.False_alarm _ -> "FALSE ALARM"
    in
    ( Fmt.str "%.1fs" result.duration,
      string_of_int v.depth,
      string_of_int result.distinct,
      confirmed )
  | Explorer.Exhausted | Explorer.Budget_spent -> (
    match script_for info with
    | Some (script, scenario) -> (
      match Script.run spec scenario script with
      | Ok trace -> (
        match Script.violation_after spec scenario trace with
        | Some (_, i) ->
          let prefix = List.filteri (fun k _ -> k < i) trace in
          let confirmation =
            Replay.confirm ~mask:Systems.Common.conformance_mask spec
              ~boot:(fun sc -> sys.sut bugs None sc)
              scenario prefix
          in
          let confirmed =
            match confirmation with
            | Replay.Confirmed _ -> "confirmed*"
            | Replay.False_alarm _ -> "FALSE ALARM"
          in
          "script", string_of_int i, string_of_int result.distinct, confirmed
        | None -> "script?", "-", string_of_int result.distinct, "no violation")
      | Error _ -> "script!", "-", string_of_int result.distinct, "-")
    | None ->
      ( Fmt.str "(%.0fs+)" result.duration,
        "-",
        string_of_int result.distinct,
        "not reached" ))

(* Directed conformance schedules for impl-only bugs whose trigger is too
   specific for short random-walk budgets. *)
let conformance_script_for (info : Bug.info) =
  match info.id with
  | "WRaft#3" -> Some (Systems.Wraft.wraft3_script, Systems.Wraft.wraft3_scenario)
  | "WRaft#6" -> Some (Systems.Wraft.wraft6_script, Systems.Wraft.wraft6_scenario)
  | "WRaft#8" -> Some (Systems.Wraft.wraft8_script, Systems.Wraft.wraft8_scenario)
  | _ -> None

let conformance_row (sys : R.t) (info : Bug.info) =
  (* fixed spec against the buggy implementation: the discrepancy IS the
     bug report (§3.2 by-product bugs) *)
  let bugs = Bug.flags info.flags in
  let spec = sys.spec Bug.Flags.empty in
  match conformance_script_for info with
  | Some (script, scenario) -> (
    match Script.run spec scenario script with
    | Error _ -> "script!", "-", "-", "-"
    | Ok trace -> (
      match
        Replay.confirm ~mask:Systems.Common.conformance_mask spec
          ~boot:(fun sc -> sys.sut bugs None sc)
          scenario trace
      with
      | Replay.False_alarm d ->
        "script", "-", Fmt.str "ev %d" (d.failed_at + 1), "caught"
      | Replay.Confirmed _ -> "script", "-", "-", "NOT caught"))
  | None -> (
    let report =
      Conformance.run ~mask:Systems.Common.conformance_mask ~walk_depth:30
        ~time_budget:(budget 20.) spec
        ~boot:(fun sc -> sys.sut bugs None sc)
        info.scenario ~rounds:2000 ~seed:42
    in
    match report.discrepancy with
    | Some d ->
      ( Fmt.str "%.1fs" report.duration,
        Fmt.str "round %d" d.round,
        Fmt.str "ev %d" (d.failed_at + 1),
        "caught" )
    | None -> Fmt.str "%.1fs" report.duration, "-", "-", "not caught")

let table2 () =
  section_header "Table 2: bug detection (paper depth/#states in brackets)";
  let widths = [ 13; 13; 46; 8; 16; 9; 10 ] in
  row widths
    [ "Bug"; "Stage"; "Consequence"; "Time"; "Depth [paper]"; "#States";
      "Replay" ];
  hrule widths;
  List.iter
    (fun (sys : R.t) ->
      List.iter
        (fun (info : Bug.info) ->
          let time, depth, states, replay =
            match info.stage, info.invariant with
            | Bug.Verification, Some invariant ->
              verification_row sys info invariant
            | Bug.Conformance, _ -> conformance_row sys info
            | (Bug.Modeling | Bug.Verification), _ -> "-", "-", "-", "modeling"
          in
          let paper_info =
            match info.paper_depth, info.paper_states with
            | Some d, Some s -> Fmt.str "[%d/%.1e]" d (float s)
            | _ -> ""
          in
          row widths
            [ info.id;
              Bug.stage_to_string info.stage;
              info.consequence;
              time;
              Fmt.str "%s %s" depth paper_info;
              states;
              replay ];
          Fmt.pr "%!")
        sys.bugs)
    R.all;
  Fmt.pr
    "(Replay 'confirmed' = violating trace deterministically reproduced at \
     the implementation level; '*' via directed reproduction script — BFS \
     reaches these with paper-scale budgets.)@."

(* ------------------------------------------------------------------ *)
(* Table 3: efficiency of state exploration                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section_header
    "Table 3: exploration efficiency (exp#1 exhaustive, exp#2 time-budget)";
  let widths = [ 10; 9; 8; 11; 9; 12; 12; 14 ] in
  row widths
    [ "System"; "e1 Time"; "e1 Dep"; "e1 States"; "e2 Dep"; "e2 States";
      "states/min"; "extrap/day" ];
  hrule widths;
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec Bug.Flags.empty in
      let e1 =
        Explorer.check spec sys.table3_scenario
          { Explorer.default with time_budget = Some (budget 60.) }
      in
      let e1_time =
        match e1.outcome with
        | Explorer.Exhausted -> Fmt.str "%.0fs" e1.duration
        | _ -> Fmt.str "%.0fs+" e1.duration
      in
      let doubled =
        { sys.table3_scenario with
          budget = Scenario.double sys.table3_scenario.budget }
      in
      let e2 =
        Explorer.check spec doubled
          { Explorer.default with time_budget = Some (budget 20.) }
      in
      let per_min = float e2.distinct /. e2.duration *. 60. in
      row widths
        [ sys.name;
          e1_time;
          string_of_int e1.max_depth;
          string_of_int e1.distinct;
          string_of_int e2.max_depth;
          string_of_int e2.distinct;
          Fmt.str "%.2e" per_min;
          Fmt.str "%.2e" (per_min *. 60. *. 24.) ];
      Fmt.pr "%!")
    R.all;
  Fmt.pr
    "(paper: exp#1 full coverage in 23min-2.9h; exp#2 up to 1e9 distinct \
     states per machine-day at 7.4e5-2.3e6 states/min with 20 threads; this \
     harness is single-threaded and time-scaled by SANDTABLE_BENCH_SCALE)@."

(* ------------------------------------------------------------------ *)
(* Table 4: specification-level vs implementation-level speed           *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section_header "Table 4: spec-level vs impl-level exploration speed";
  let widths = [ 10; 12; 10; 10; 10; 10; 14 ] in
  row widths
    [ "System"; "TraceDepth"; "AvgDepth"; "Spec ms"; "Impl ms"; "Speedup";
      "paper speedup" ];
  hrule widths;
  let spec_walks = max 20 (int_of_float (100. *. scale)) in
  let impl_replays = max 5 (int_of_float (20. *. scale)) in
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec Bug.Flags.empty in
      let walk_opts = { Simulate.default with max_depth = 60 } in
      let t0 = Unix.gettimeofday () in
      let walks =
        Simulate.walks spec sys.default_scenario walk_opts ~seed:5
          ~count:spec_walks
      in
      let spec_ms =
        (Unix.gettimeofday () -. t0) /. float spec_walks *. 1000.
      in
      let agg = Simulate.aggregate walks in
      let depths = List.map (fun (w : Simulate.walk) -> w.depth) walks in
      let min_d = List.fold_left min max_int depths
      and max_d = List.fold_left max 0 depths in
      let replayed = List.filteri (fun i _ -> i < impl_replays) walks in
      let impl_ms_total =
        List.fold_left
          (fun acc (w : Simulate.walk) ->
            let cluster =
              Engine.Cluster.create
                { Engine.Cluster.nodes = sys.default_scenario.nodes;
                  semantics = sys.semantics;
                  timeouts = sys.timeouts;
                  clock_skew_ms = [];
                  cost = sys.cost_profile;
                  boot = sys.boot_impl Bug.Flags.empty }
            in
            (match Engine.Cluster.run_trace cluster w.events with
            | Ok () -> ()
            | Error (e, i) ->
              Fmt.epr "warning: %s replay stopped at %d: %a@." sys.name i
                Engine.Cluster.pp_error e);
            acc +. Engine.Cost.total_ms (Engine.Cluster.cost cluster))
          0. replayed
      in
      let impl_ms = impl_ms_total /. float (List.length replayed) in
      row widths
        [ sys.name;
          Fmt.str "%d-%d" min_d max_d;
          Fmt.str "%.0f" agg.mean_depth;
          Fmt.str "%.2f" spec_ms;
          Fmt.str "%.0f" impl_ms;
          Fmt.str "%.0fx" (impl_ms /. spec_ms);
          Fmt.str "%dx" sys.paper_t4.t4_speedup ];
      Fmt.pr "%!")
    R.all;
  Fmt.pr
    "(impl ms = real re-implementation execution + the per-system \
     virtual-time profile of initialization/enforcement/synchronization \
     sleeps; see DESIGN.md substitutions)@."

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: space-time diagrams of the detailed bugs            *)
(* ------------------------------------------------------------------ *)

let diagram ~labels events =
  List.iteri
    (fun i ((e : Trace.event), label) ->
      let lane =
        match e with
        | Trace.Deliver { src; dst; _ } ->
          Fmt.str "%s %s--->%s  %s" (Trace.node_name src)
            (String.make (6 * src) ' ')
            (Trace.node_name dst) label
        | other -> Fmt.str "%a" (Trace.pp_labelled_event label) other
      in
      Fmt.pr "%3d. %s@." (i + 1) lane)
    (List.combine events labels)

let fig6 () =
  section_header
    "Figure 6: PySyncObj#4 - non-monotonic match index (space-time)";
  let bugs = Bug.flags [ "pso4" ] in
  let spec = Systems.Pysyncobj.spec ~bugs () in
  let opts =
    { Explorer.default with
      time_budget = Some (budget 60.);
      only_invariants = Some [ "MatchIndexMonotonic" ] }
  in
  let r = Explorer.check spec Systems.Pysyncobj.default_scenario opts in
  match r.outcome with
  | Explorer.Violation v ->
    diagram ~labels:v.labels v.events;
    Fmt.pr "%s@." v.state_repr;
    Fmt.pr
      "The leader's match index regressed after a stale success reply - \
       the paper's Fig. 6 mechanism (aggressive nextIndex + unverified \
       reply hints).@."
  | _ -> not_reproduced "violation not found within budget@."

let fig7 () =
  section_header "Figure 7: WRaft#2 - data inconsistency after compaction";
  let bugs = Bug.flags [ "wraft2" ] in
  let spec = Systems.Wraft.spec ~bugs () in
  match
    Script.run spec Systems.Wraft.fig7_scenario Systems.Wraft.fig7_script
  with
  | Error f -> not_reproduced "script failed: %a@." Script.pp_failure f
  | Ok trace -> (
    diagram ~labels:(Spec.labels spec Systems.Wraft.fig7_scenario trace) trace;
    match Script.violation_after spec Systems.Wraft.fig7_scenario trace with
    | Some (inv, i) ->
      Fmt.pr
        "Invariant %s violated at event %d: the old leader committed a \
         conflicting entry because an AppendEntries was sent where a \
         snapshot was due (WRaft#2).@."
        inv i
    | None -> not_reproduced "no violation?!@.")

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section_header "Ablation: symmetry reduction (PySyncObj, 3 nodes)";
  let spec = Systems.Pysyncobj.spec () in
  let scenario = (R.find "pysyncobj").table3_scenario in
  let run symmetry =
    Explorer.check spec scenario
      { Explorer.default with symmetry; time_budget = Some (budget 30.) }
  in
  let with_sym = run true in
  let without = run false in
  let outcome (r : Explorer.result) =
    match r.outcome with Explorer.Exhausted -> "exhausted" | _ -> "budget"
  in
  Fmt.pr "with symmetry:    %d distinct states in %.1fs (%s)@."
    with_sym.distinct with_sym.duration (outcome with_sym);
  Fmt.pr "without symmetry: %d distinct states in %.1fs (%s)@." without.distinct
    without.duration (outcome without);

  section_header "Ablation: stateful BFS vs stateless enumeration";
  let small =
    Scenario.v ~name:"ablation-small" ~nodes:2 ~workload:[ 1 ]
      [ "timeouts", 3; "requests", 1; "crashes", 0; "restarts", 0;
        "partitions", 0; "buffer", 3 ]
  in
  let bfs =
    Explorer.check spec small
      { Explorer.default with symmetry = false; time_budget = Some (budget 30.)
      }
  in
  let sl =
    Explorer.stateless_dfs spec small ~max_depth:bfs.max_depth
      ~max_visits:5_000_000 ()
  in
  Fmt.pr "stateful BFS:  %d distinct states, %.2fs@." bfs.distinct bfs.duration;
  Fmt.pr
    "stateless DFS: %d state visits for %d distinct (%.1fx redundancy), %.2fs@."
    sl.sl_states_visited sl.sl_distinct
    (float sl.sl_states_visited /. float (max 1 sl.sl_distinct))
    sl.sl_duration;

  section_header "Ablation: Algorithm 1 constraint ranking (PySyncObj)";
  let configs = [ { Rank.cname = "2n"; nodes = 2; workload = [ 1; 2 ] } ] in
  let budgets =
    [ [ "timeouts", 3; "requests", 2; "crashes", 0; "restarts", 0;
        "partitions", 0; "buffer", 3 ];
      [ "timeouts", 6; "requests", 3; "crashes", 1; "restarts", 1;
        "partitions", 1; "buffer", 4 ];
      [ "timeouts", 9; "requests", 5; "crashes", 3; "restarts", 3;
        "partitions", 2; "buffer", 8 ] ]
  in
  let ranked =
    Rank.rank spec ~configs ~budgets ~walks_per:60 ~walk_depth:40 ~seed:3
  in
  List.iter
    (fun (config, data) ->
      Fmt.pr "config %s:@." config.Rank.cname;
      List.iteri
        (fun i datum -> Fmt.pr "  #%d %a@." (i + 1) Rank.pp_datum datum)
        data)
    ranked

let sections =
  [ "table1", table1;
    "table2", table2;
    "table3", table3;
    "table4", table4;
    "fig6", fig6;
    "fig7", fig7;
    "ablation", ablation ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  (match List.filter (fun name -> not (List.mem_assoc name sections)) requested with
  | [] -> ()
  | unknown ->
    usage_error "unknown section %s (available: %s)"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst sections)));
  Fmt.pr "SandTable benchmark harness (scale %.2f)@." scale;
  List.iter (fun name -> List.assoc name sections ()) requested;
  if !failed then exit 1
