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
   Run a single section with: dune exec bench/main.exe -- table2 *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let scale =
  match Sys.getenv_opt "SANDTABLE_BENCH_SCALE" with
  | Some s -> (try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

let budget base = base *. scale
let section_header title = Fmt.pr "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_explore.json                        *)
(* ------------------------------------------------------------------ *)

type bench_entry = {
  be_section : string;
  be_system : string;
  be_workers : int;
  be_engine : string;  (** "seq", "par" (layer-synchronous) or "ws" *)
  be_cores : int;  (** cores available when the row ran; gates refuse
                       rows with [be_cores < be_workers] *)
  be_distinct : int;
  be_generated : int;
  be_wall_s : float;
  be_outcome : string;
  be_extra : (string * float) list;  (** section-specific numeric fields *)
}

let machine_cores = Domain.recommended_domain_count ()

let bench_entries : bench_entry list ref = ref []
let record_entry e = bench_entries := e :: !bench_entries

let outcome_tag = function
  | Explorer.Exhausted -> "exhausted"
  | Explorer.Violation _ -> "violation"
  | Explorer.Budget_spent -> "budget"
  | Explorer.Deadlock _ -> "deadlock"

let states_per_sec distinct wall = if wall <= 0. then 0. else float distinct /. wall

let bench_json_path =
  Option.value
    (Sys.getenv_opt "SANDTABLE_BENCH_JSON")
    ~default:"BENCH_explore.json"

let write_bench_json () =
  match List.rev !bench_entries with
  | [] -> ()
  | entries ->
    let oc = open_out bench_json_path in
    let p fmt = Printf.fprintf oc fmt in
    p "{\n";
    p "  \"schema\": \"sandtable-bench-explore/1\",\n";
    p "  \"generated_at\": %.0f,\n" (Unix.time ());
    p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
    p "  \"scale\": %g,\n" scale;
    p "  \"sections\": [\n";
    List.iteri
      (fun i e ->
        let extra =
          String.concat ""
            (List.map
               (fun (k, v) -> Printf.sprintf ", \"%s\": %g" k v)
               e.be_extra)
        in
        p
          "    { \"section\": %S, \"system\": %S, \"workers\": %d, \
           \"engine\": %S, \"cores\": %d, \"distinct\": %d, \
           \"generated\": %d, \"states_per_sec\": %.1f, \"wall_s\": %.3f, \
           \"outcome\": %S%s }%s\n"
          e.be_section e.be_system e.be_workers e.be_engine e.be_cores
          e.be_distinct e.be_generated
          (states_per_sec e.be_distinct e.be_wall_s)
          e.be_wall_s e.be_outcome extra
          (if i = List.length entries - 1 then "" else ","))
      entries;
    p "  ]\n}\n";
    close_out oc;
    Fmt.pr "@.wrote %s (%d entries)@." bench_json_path (List.length entries)

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
  | Explorer.Exhausted | Explorer.Budget_spent | Explorer.Deadlock _ -> (
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
      record_entry
        { be_section = "table3-exp1"; be_system = sys.name; be_workers = 1;
          be_engine = "seq"; be_cores = machine_cores;
          be_distinct = e1.distinct; be_generated = e1.generated;
          be_wall_s = e1.duration; be_outcome = outcome_tag e1.outcome;
          be_extra = [] };
      record_entry
        { be_section = "table3-exp2"; be_system = sys.name; be_workers = 1;
          be_engine = "seq"; be_cores = machine_cores;
          be_distinct = e2.distinct; be_generated = e2.generated;
          be_wall_s = e2.duration; be_outcome = outcome_tag e2.outcome;
          be_extra = [] };
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
  | _ -> Fmt.pr "violation not found within budget@."

let fig7 () =
  section_header "Figure 7: WRaft#2 - data inconsistency after compaction";
  let bugs = Bug.flags [ "wraft2" ] in
  let spec = Systems.Wraft.spec ~bugs () in
  match
    Script.run spec Systems.Wraft.fig7_scenario Systems.Wraft.fig7_script
  with
  | Error f -> Fmt.pr "script failed: %a@." Script.pp_failure f
  | Ok trace -> (
    diagram ~labels:(Spec.labels spec Systems.Wraft.fig7_scenario trace) trace;
    match Script.violation_after spec Systems.Wraft.fig7_scenario trace with
    | Some (inv, i) ->
      Fmt.pr
        "Invariant %s violated at event %d: the old leader committed a \
         conflicting entry because an AppendEntries was sent where a \
         snapshot was due (WRaft#2).@."
        inv i
    | None -> Fmt.pr "no violation?!@.")

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

(* ------------------------------------------------------------------ *)
(* Scaling: the multicore exploration engine (lib/par)                  *)
(* ------------------------------------------------------------------ *)

(* States/sec at 1/2/4/8 workers, one sub-section per parallel engine:
   "scaling" is the layer-synchronous BFS (the --strict-bfs engine),
   "scaling-after" the barrier-free work-stealing engine. Workers = 1 runs
   the sequential engine as the common baseline. On a single-core
   container both curves plateau near 1x — every row records the "cores"
   available when it ran, and rows with workers > cores are oversubscribed
   (they measure the OS scheduler) so scaling gates refuse them. *)
let scaling_engine ~section ~engine_name ~footer check_at =
  section_header
    (Fmt.str "Scaling (%s): %s states/sec vs workers (%d cores available)"
       section engine_name machine_cores);
  let worker_counts = [ 1; 2; 4; 8 ] in
  (match List.filter (fun w -> w > machine_cores) worker_counts with
  | [] -> ()
  | over ->
    Fmt.pr
      "note: worker counts %s exceed the %d available cores — those rows \
       are oversubscribed and excluded from scaling gates@."
      (String.concat "/" (List.map string_of_int over))
      machine_cores);
  let widths = [ 10; 8; 11; 11; 12; 9; 9 ] in
  row widths
    [ "System"; "Workers"; "Distinct"; "Generated"; "states/sec"; "Wall";
      "Speedup" ];
  hrule widths;
  List.iter
    (fun (sys : R.t) ->
      let spec = sys.spec Bug.Flags.empty in
      let scenario = sys.table3_scenario in
      let opts =
        { Explorer.default with time_budget = Some (budget 60.) }
      in
      let base_rate = ref 0. in
      List.iter
        (fun workers ->
          let r = check_at spec scenario opts workers in
          let rate = states_per_sec r.Explorer.distinct r.Explorer.duration in
          if workers = 1 then base_rate := rate;
          record_entry
            { be_section = section; be_system = sys.name;
              be_workers = workers;
              be_engine = (if workers = 1 then "seq" else engine_name);
              be_cores = machine_cores;
              be_distinct = r.distinct; be_generated = r.generated;
              be_wall_s = r.duration; be_outcome = outcome_tag r.outcome;
              be_extra = [] };
          row widths
            [ sys.name;
              string_of_int workers;
              string_of_int r.distinct;
              string_of_int r.generated;
              Fmt.str "%.0f" rate;
              Fmt.str "%.2fs" r.duration;
              Fmt.str "%.2fx" (if !base_rate > 0. then rate /. !base_rate else 0.)
            ];
          Fmt.pr "%!")
        worker_counts)
    R.scaling;
  Fmt.pr "%s@." footer

let scaling () =
  scaling_engine ~section:"scaling" ~engine_name:"par"
    ~footer:
      "(workers=1 is the sequential engine; >1 the lib/par \
       layer-synchronous BFS over a 64-shard fingerprint store; identical \
       distinct counts across rows of a system confirm \
       sequential-equivalence)"
    (fun spec scenario opts workers ->
      if workers = 1 then Explorer.check spec scenario opts
      else (Par.Par_explorer.check ~workers spec scenario opts).base)

let scaling_after () =
  scaling_engine ~section:"scaling-after" ~engine_name:"ws"
    ~footer:
      "(workers=1 is the sequential engine; >1 the barrier-free \
       work-stealing engine. Distinct counts match across rows only when \
       every row exhausted — a time budget cuts schedule-dependent \
       prefixes, so budgeted totals differ while exhaustive totals are \
       worker-count-invariant)"
    (fun spec scenario opts workers ->
      if workers = 1 then Explorer.check spec scenario opts
      else (Par.Ws_explorer.check ~workers spec scenario opts).Par.Ws_explorer.base)

(* ------------------------------------------------------------------ *)
(* Memory: visited-store footprint in bytes per state                   *)
(* ------------------------------------------------------------------ *)

(* Two measures per run, sequential and 4-worker:
     - whole-heap bytes/state: peak GC live words sampled at every layer
       barrier (after a forced full major, so live_words is exact) minus
       the pre-run compacted baseline, divided by distinct states;
     - store-only bytes/state and peak slot capacity: the engines'
       visited.* gauges, which isolate the fingerprint store from spec
       states, frontier and interning.
   Every row runs in a fresh child process (the bench binary re-executed
   with a hidden [memory-row] argv — [Unix.fork] is off the table once
   any section has spawned domains): the OCaml 5 runtime never lowers
   [live_words] back to the true live set after a run's garbage dies
   (pool accounting sticks at the high-water mark), so a second
   in-process measurement would start from the first run's peak and read
   a delta of zero. A fresh process per row makes the baseline exact and
   the rows independent of section order. The full major per layer costs
   wall time, so this section reports footprint, not throughput —
   states/sec lives in the scaling section. *)

type memory_row = {
  mr_distinct : int;
  mr_generated : int;
  mr_wall : float;
  mr_outcome : string;
  mr_heap_bytes : int;
  mr_store_bytes : float;
  mr_store_bps : float;
  mr_peak_cap : float;
}

(* CI's perf-smoke job sets SANDTABLE_MEMORY_SMALL: one fixed exhaustive
   model instead of the time-budgeted table-3 scenarios, so distinct
   counts — and with them the store's slot-array growth and its
   bytes_per_state — are bit-for-bit reproducible and comparable against
   the committed bench/memory_baseline.json. *)
let memory_targets () =
  match Sys.getenv_opt "SANDTABLE_MEMORY_SMALL" with
  | Some _ ->
    let scenario =
      Scenario.v ~name:"memory-smoke" ~nodes:2 ~workload:[ 1 ]
        [ "timeouts", 6; "requests", 2; "crashes", 1; "restarts", 1;
          "partitions", 0; "buffer", 4 ]
    in
    [ (R.find "pysyncobj", scenario) ]
  | None -> List.map (fun (sys : R.t) -> (sys, sys.table3_scenario)) R.scaling

let memory_child (sys : R.t) scenario workers =
  let spec = sys.spec Bug.Flags.empty in
  Gc.compact ();
  let live0 = (Gc.quick_stat ()).live_words in
  let peak = ref live0 in
  let obs = Obs.Run.create ~workers () in
  let opts =
    { Explorer.default with
      time_budget = Some (budget 60.);
      probe = Obs.Run.probe obs;
      on_layer =
        Some
          (fun _ _ ->
            Gc.full_major ();
            let live = (Gc.quick_stat ()).live_words in
            if live > !peak then peak := live) }
  in
  let r =
    if workers = 1 then Explorer.check spec scenario opts
    else (Par.Par_explorer.check ~workers spec scenario opts).base
  in
  let sm =
    Obs.Run.finish obs ~outcome:(outcome_tag r.outcome) ~distinct:r.distinct
      ~generated:r.generated ~max_depth:r.max_depth ~duration:r.duration ()
  in
  let gauge name =
    match List.assoc_opt name sm.Obs.Run.s_metrics.Obs.Metrics.s_gauges with
    | Some g -> g.Obs.Metrics.g_max
    | None -> 0.
  in
  { mr_distinct = r.distinct;
    mr_generated = r.generated;
    mr_wall = r.duration;
    mr_outcome = outcome_tag r.outcome;
    mr_heap_bytes = (!peak - live0) * (Sys.word_size / 8);
    mr_store_bytes = gauge "visited.store_bytes";
    mr_store_bps = gauge "visited.bytes_per_state";
    mr_peak_cap = gauge "visited.capacity" }

(* The child half of the re-exec protocol: one measured row as a single
   machine-readable stdout line (stderr passes through untouched). *)
let memory_row_main sys_name workers =
  let sys = R.find sys_name in
  let scenario =
    match
      List.find_opt (fun ((s : R.t), _) -> s.name = sys_name) (memory_targets ())
    with
    | Some (_, sc) -> sc
    | None -> sys.table3_scenario
  in
  let m = memory_child sys scenario workers in
  Printf.printf "%d %d %.6f %s %d %.0f %.6f %.0f\n" m.mr_distinct
    m.mr_generated m.mr_wall m.mr_outcome m.mr_heap_bytes m.mr_store_bytes
    m.mr_store_bps m.mr_peak_cap

let memory_row_exec sys_name workers =
  Fmt.pr "%!";
  flush stdout;
  let ic =
    Unix.open_process_in
      (Filename.quote_command Sys.executable_name
         [ "memory-row"; sys_name; string_of_int workers ])
  in
  let line = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("memory row child failed for " ^ sys_name));
  Scanf.sscanf line "%d %d %f %s %d %f %f %f"
    (fun distinct generated wall outcome heap store_b store_bps cap ->
      { mr_distinct = distinct; mr_generated = generated; mr_wall = wall;
        mr_outcome = outcome; mr_heap_bytes = heap; mr_store_bytes = store_b;
        mr_store_bps = store_bps; mr_peak_cap = cap })

let memory () =
  section_header "Memory: visited-store footprint (bytes per state)";
  let widths = [ 10; 8; 11; 12; 10; 11; 10; 8 ] in
  row widths
    [ "System"; "Workers"; "Distinct"; "Peak heap"; "B/state"; "Store B/st";
      "Peak cap"; "Wall" ];
  hrule widths;
  List.iter
    (fun ((sys : R.t), _scenario) ->
      List.iter
        (fun workers ->
          let m = memory_row_exec sys.name workers in
          let bps = float m.mr_heap_bytes /. float (max 1 m.mr_distinct) in
          record_entry
            { be_section = "memory"; be_system = sys.name;
              be_workers = workers;
              be_engine = (if workers = 1 then "seq" else "par");
              be_cores = machine_cores; be_distinct = m.mr_distinct;
              be_generated = m.mr_generated; be_wall_s = m.mr_wall;
              be_outcome = m.mr_outcome;
              be_extra =
                [ ("bytes_per_state", bps);
                  ("heap_peak_bytes", float m.mr_heap_bytes);
                  ("store_bytes", m.mr_store_bytes);
                  ("store_bytes_per_state", m.mr_store_bps);
                  ("peak_capacity", m.mr_peak_cap) ] };
          row widths
            [ sys.name;
              string_of_int workers;
              string_of_int m.mr_distinct;
              Fmt.str "%.1fMB" (float m.mr_heap_bytes /. 1048576.);
              Fmt.str "%.0f" bps;
              Fmt.str "%.0f" m.mr_store_bps;
              Fmt.str "%.0f" m.mr_peak_cap;
              Fmt.str "%.2fs" m.mr_wall ];
          Fmt.pr "%!")
        [ 1; 4 ])
    (memory_targets ());
  Fmt.pr
    "(B/state = peak live heap delta over distinct states — spec states, \
     frontier, interning and the fingerprint store together; Store B/st = \
     the open-addressed SoA visited store alone, from the visited.* \
     gauges; peak cap = slot-array length at its largest)@."

(* ------------------------------------------------------------------ *)
(* Checkpoint overhead: lib/store periodic checkpoints vs none          *)
(* ------------------------------------------------------------------ *)

(* One exhaustive BFS per checkpoint interval over the same scenario.
   Interval 0 is the no-checkpoint baseline. Overhead% is the time spent
   inside checkpoint writes relative to the baseline's exploration wall
   time: raw wall-to-wall deltas at this scale (<1s) are dominated by
   scheduler noise, while the write time itself is stable (same state
   space, same bytes written every run). *)
let checkpoint_bench () =
  section_header "Checkpoint overhead: periodic lib/store checkpoints";
  let spec = Systems.Pysyncobj.spec () in
  let scenario =
    Scenario.v ~name:"ckpt-bench" ~nodes:2 ~workload:[ 1 ]
      [ "timeouts", 6; "requests", 2; "crashes", 1; "restarts", 1;
        "partitions", 0; "buffer", 4 ]
  in
  let base_opts =
    { Explorer.default with time_budget = Some (budget 120.) }
  in
  let identity = Store.Checkpoint.identity spec scenario base_opts in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sandtable-bench-ckpt-%d" (Unix.getpid ()))
  in
  let widths = [ 9; 9; 11; 12; 11; 12; 10 ] in
  row widths
    [ "Interval"; "Ckpts"; "Ckpt bytes"; "Ckpt time"; "Distinct"; "Wall";
      "Overhead" ];
  hrule widths;
  let baseline = ref 0. in
  List.iter
    (fun every ->
      let saved = ref 0 and bytes = ref 0 and ck_s = ref 0. in
      let opts =
        if every = 0 then base_opts
        else
          { base_opts with
            on_layer =
              Some
                (Store.Checkpoint.hook ~dir ~identity ~every
                   ~on_save:(fun st ->
                     incr saved;
                     bytes := st.ck_bytes;
                     ck_s := !ck_s +. st.ck_seconds)
                   ()) }
      in
      (* Level the heap before each interval run: earlier sections (and
         earlier intervals) leave a grown major heap whose GC pauses would
         otherwise land in the checkpoint write times. *)
      Gc.compact ();
      let r = Explorer.check spec scenario opts in
      if every = 0 then baseline := r.duration;
      let overhead =
        if !baseline > 0. then !ck_s /. !baseline *. 100. else 0.
      in
      record_entry
        { be_section = "checkpoint"; be_system = "pysyncobj"; be_workers = 1;
          be_engine = "seq"; be_cores = machine_cores;
          be_distinct = r.distinct; be_generated = r.generated;
          be_wall_s = r.duration; be_outcome = outcome_tag r.outcome;
          be_extra =
            [ ("checkpoint_every", float every);
              ("checkpoints", float !saved);
              ("checkpoint_bytes", float !bytes);
              ("checkpoint_s", !ck_s);
              ("overhead_pct", overhead) ] };
      row widths
        [ (if every = 0 then "none" else string_of_int every);
          string_of_int !saved;
          string_of_int !bytes;
          Fmt.str "%.3fs" !ck_s;
          string_of_int r.distinct;
          Fmt.str "%.2fs" r.duration;
          (if every = 0 then "baseline" else Fmt.str "%+.1f%%" overhead) ];
      Fmt.pr "%!")
    [ 0; 8; 2 ];
  (try Sys.remove (Filename.concat dir Store.Checkpoint.file)
   with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Fmt.pr
    "(each run explores the same space exhaustively; a checkpoint is an \
     atomic write of the whole visited set + frontier, so the interval \
     trades recovery granularity against write amplification)@."

(* One exhaustive BFS per instrumentation level over the same scenario:
   probe absent (the zero-cost claim), metrics-only (counters + phase
   timers, no files), and full (trace-event file + run-dir artefacts).
   Each level runs [reps] times and keeps its best wall time — at sub-
   second scale the minimum is the least noisy location statistic, and
   the instrumentation cost is a constant per-state tax, not a tail
   effect. *)
let obs_bench () =
  section_header "Observability overhead: probe off vs metrics vs full trace";
  let spec = Systems.Pysyncobj.spec () in
  let scenario =
    Scenario.v ~name:"obs-bench" ~nodes:2 ~workload:[ 1 ]
      [ "timeouts", 7; "requests", 2; "crashes", 1; "restarts", 1;
        "partitions", 0; "buffer", 4 ]
  in
  let base_opts =
    { Explorer.default with time_budget = Some (budget 120.) }
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sandtable-bench-obs-%s-%d" name (Unix.getpid ()))
  in
  let reps = 5 in
  let with_obs obs =
    ( { base_opts with probe = Obs.Run.probe obs },
      fun (r : Explorer.result) ->
        ignore
          (Obs.Run.finish obs ~outcome:(outcome_tag r.outcome)
             ~distinct:r.distinct ~generated:r.generated
             ~max_depth:r.max_depth ~duration:r.duration ()) )
  in
  let levels =
    [ ("off", fun () -> (base_opts, fun _ -> ()));
      ("metrics", fun () -> with_obs (Obs.Run.create ~workers:1 ()));
      ( "full",
        fun () ->
          let dir = scratch "dir" in
          rm_rf dir;
          with_obs
            (Obs.Run.create ~workers:1 ~dir
               ~trace_out:(Filename.concat dir "trace.json") ()) ) ]
  in
  (* The disabled probe is one branch on an immediate per call site, too
     small to resolve wall-to-wall (it drowns in scheduler noise), so
     bound it directly: time the primitive with probe = None and scale by
     a generous per-state call-site count against the off run's measured
     per-state cost. *)
  let probe_off_ns =
    let n = 10_000_000 in
    let no_probe = Sys.opaque_identity None in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      Probe.count no_probe "fp.dup" 1
    done;
    (Unix.gettimeofday () -. t0) /. float n *. 1e9
  in
  (* raised from 10 when the discovery-edge profiler and expand.states
     counter added their call sites *)
  let sites_per_state = 12. in
  (* Interleave the repetitions round-robin across levels: machine noise
     is time-correlated (a slow scheduling window inflates whatever runs
     during it), so back-to-back reps of one level can all land in the
     same window and invert the comparison. Keep each level's best. *)
  let best : (string, Explorer.result) Hashtbl.t = Hashtbl.create 8 in
  for _ = 1 to reps do
    List.iter
      (fun (name, make) ->
        Gc.compact ();
        let opts, finish = make () in
        let r = Explorer.check spec scenario opts in
        finish r;
        match Hashtbl.find_opt best name with
        | Some b when b.Explorer.duration <= r.Explorer.duration -> ()
        | _ -> Hashtbl.replace best name r)
      levels
  done;
  let widths = [ 9; 11; 9; 10 ] in
  row widths [ "Level"; "Distinct"; "Wall"; "Overhead" ];
  hrule widths;
  let baseline = ref 0. and off_bound = ref 0. in
  List.iter
    (fun (name, _) ->
      let r = Hashtbl.find best name in
      let overhead =
        if name = "off" then begin
          baseline := r.Explorer.duration;
          let ns_per_state =
            r.Explorer.duration /. float (max 1 r.Explorer.generated) *. 1e9
          in
          off_bound := sites_per_state *. probe_off_ns /. ns_per_state *. 100.;
          !off_bound
        end
        else if !baseline > 0. then
          (r.Explorer.duration -. !baseline) /. !baseline *. 100.
        else 0.
      in
      record_entry
        { be_section = "obs"; be_system = "pysyncobj"; be_workers = 1;
          be_engine = "seq"; be_cores = machine_cores;
          be_distinct = r.distinct; be_generated = r.generated;
          be_wall_s = r.duration; be_outcome = outcome_tag r.outcome;
          be_extra =
            (("overhead_pct", overhead)
            ::
            (if name = "off" then
               [ ("probe_off_ns_per_call", probe_off_ns);
                 ("probe_sites_per_state", sites_per_state) ]
             else [])) };
      row widths
        [ name; string_of_int r.distinct;
          Fmt.str "%.3fs" r.duration;
          (if name = "off" then Fmt.str "<%.2f%%" overhead
           else Fmt.str "%+.1f%%" overhead) ];
      Fmt.pr "%!")
    levels;
  rm_rf (scratch "dir");
  Fmt.pr
    "(probe off is the shipping default: each of the ~%.0f call sites per \
     state branches on an option in %.1fns, bounding the disabled-probe \
     tax at %.2f%% of exploration — the <2%% claim; metrics adds \
     domain-local counter bumps and span timestamps; full adds trace \
     spans and per-layer ndjson records)@."
    sites_per_state probe_off_ns !off_bound

(* ------------------------------------------------------------------ *)
(* Shrink: replay-validated counterexample minimization                 *)
(* ------------------------------------------------------------------ *)

(* BFS counterexamples are already depth-minimal, so reduction is measured
   where it matters in practice: random-walk violations — the long,
   junk-laden traces conformance checking and simulation produce. Each
   minimized trace is re-confirmed at the implementation level, closing
   the paper's §3.4 loop on the shortened repro. *)
let shrink_bench () =
  section_header "Shrink: replay-validated counterexample minimization";
  let cases =
    [ ("daosraft", [ "daos1" ]); ("wraft", [ "wraft4" ]);
      ("xraft", [ "xraft1" ]) ]
  in
  let widths = [ 10; 10; 9; 9; 10; 11; 9; 10 ] in
  row widths
    [ "System"; "Bug"; "Original"; "Shrunk"; "Reduction"; "Candidates";
      "Wall"; "Confirmed" ];
  hrule widths;
  List.iter
    (fun (name, bug_flags) ->
      let sys = R.find name in
      let flags = R.flags_of sys bug_flags in
      let spec = sys.R.spec flags in
      let scenario = sys.R.default_scenario in
      let opts = { Simulate.default with max_depth = 60 } in
      let count = max 100 (int_of_float (budget 500.)) in
      let walks = Simulate.walks spec scenario opts ~seed:1 ~count in
      match
        List.find_opt (fun (w : Simulate.walk) -> w.violation <> None) walks
      with
      | None ->
        Fmt.pr "%-10s no violating walk in %d tries — skipped@." name count
      | Some w ->
        let inv, idx = Option.get w.violation in
        let original = List.filteri (fun i _ -> i < idx) w.events in
        let sh =
          Shrink.run spec scenario (Shrink.Invariant inv) original
        in
        let confirmed =
          match
            Replay.confirm ~mask:Systems.Common.conformance_mask spec
              ~boot:(fun sc -> sys.R.sut flags None sc)
              scenario sh.minimized
          with
          | Replay.Confirmed _ -> true
          | Replay.False_alarm _ -> false
        in
        let reduction =
          if sh.original_len = 0 then 0.
          else
            100.
            *. float (sh.original_len - sh.minimized_len)
            /. float sh.original_len
        in
        record_entry
          { be_section = "shrink"; be_system = name; be_workers = 1;
            be_engine = "seq"; be_cores = machine_cores;
            be_distinct = 0; be_generated = sh.tried;
            be_wall_s = sh.duration; be_outcome = "violation";
            be_extra =
              [ ("original_len", float sh.original_len);
                ("minimized_len", float sh.minimized_len);
                ("reduction_pct", reduction);
                ("candidates", float sh.tried);
                ("rounds", float sh.rounds);
                ("confirmed", if confirmed then 1. else 0.) ] };
        row widths
          [ name; String.concat "," bug_flags;
            string_of_int sh.original_len; string_of_int sh.minimized_len;
            Fmt.str "-%.0f%%" reduction; string_of_int sh.tried;
            Fmt.str "%.3fs" sh.duration; (if confirmed then "yes" else "NO") ];
        Fmt.pr "%!")
    cases;
  Fmt.pr
    "(sources: first violating random walk per system at seed 1, truncated \
     at the violation; every ddmin candidate is re-validated against the \
     spec with deliveries re-addressed, and the minimized trace is \
     replayed against the real implementation)@."

(* ------------------------------------------------------------------ *)
(* Faults: schedule enumeration overhead vs the flat budget             *)
(* ------------------------------------------------------------------ *)

(* The legacy-equivalent schedule (Schedule.of_budget) explores exactly the
   same state space as the flat budget, so the wall-clock delta is pure
   plan-interpreter overhead: active-phase lookup, selector filtering and
   cumulative-cap checks at every expanded state. Target: <= 5% on the
   pysyncobj exhaustive run. A phase-structured named schedule rides along
   to show what a restricted space costs in absolute terms. *)
let faults_bench () =
  section_header "Faults: declarative schedule enumeration overhead (pysyncobj)";
  let sys = R.find "pysyncobj" in
  let spec = sys.R.spec (R.flags_of sys []) in
  let scenario = sys.R.default_scenario in
  let opts = { Explorer.default with time_budget = Some (budget 120.) } in
  let apply sched =
    match Faults.Compile.apply sched scenario with
    | Ok sc -> sc
    | Error e -> failwith ("faults bench: " ^ e)
  in
  let widths = [ 24; 11; 11; 9; 10 ] in
  row widths [ "Variant"; "Distinct"; "Generated"; "Wall"; "Overhead" ];
  hrule widths;
  let variants =
    [ "flat-budget", scenario;
      "budget-equiv", apply (Faults.Schedule.of_budget scenario.budget);
      "leader-partition", apply (Option.get (R.schedule_of sys "leader-partition")) ]
  in
  (* interleave the repetitions (A B C, A B C, ...) so slow monotone
     machine drift hits every variant equally, then take per-variant wall
     medians; counts are deterministic *)
  let runs = Hashtbl.create 8 in
  for _ = 1 to 3 do
    List.iter
      (fun (name, sc) ->
        Gc.full_major ();
        let r = Explorer.check spec sc opts in
        Hashtbl.replace runs name
          (r :: Option.value (Hashtbl.find_opt runs name) ~default:[]))
      variants
  done;
  let results =
    List.map
      (fun (name, _) ->
        let rs = Hashtbl.find runs name in
        let wall =
          List.nth
            (List.sort compare (List.map (fun r -> r.Explorer.duration) rs))
            1
        in
        (name, List.hd rs, wall))
      variants
  in
  let print_row name (r : Explorer.result) wall overhead =
    record_entry
      { be_section = "faults"; be_system = sys.name; be_workers = 1;
        be_engine = "seq"; be_cores = machine_cores;
        be_distinct = r.distinct; be_generated = r.generated; be_wall_s = wall;
        be_outcome = outcome_tag r.outcome;
        be_extra =
          ("variant_" ^ name, 1.)
          :: (match overhead with Some o -> [ "overhead_pct", o ] | None -> []) };
    row widths
      [ name; string_of_int r.distinct; string_of_int r.generated;
        Fmt.str "%.2fs" wall;
        (match overhead with Some o -> Fmt.str "%+.1f%%" o | None -> "-") ]
  in
  let _, plain, plain_wall =
    List.find (fun (name, _, _) -> name = "flat-budget") results
  in
  List.iter
    (fun (name, (r : Explorer.result), wall) ->
      let equivalent = name <> "flat-budget" && r.distinct = plain.distinct in
      let overhead =
        if equivalent then Some (100. *. (wall -. plain_wall) /. plain_wall)
        else None
      in
      print_row name r wall overhead;
      if name = "budget-equiv" && not equivalent then
        Fmt.pr "WARNING: budget-equiv schedule diverged from the flat budget@.")
    results;
  Fmt.pr
    "(the budget-equiv schedule must reproduce the legacy space exactly — \
     its overhead row is the plan interpreter's cost; the named schedule \
     explores the smaller phase-restricted space)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one per table)                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section_header "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let spec = Systems.Pysyncobj.spec () in
  let (module S : Spec.S) = spec in
  let scenario = Systems.Pysyncobj.default_scenario in
  let s0 = List.hd (S.init scenario) in
  let rng = Random.State.make [| 7 |] in
  let walk_opts = { Simulate.default with max_depth = 20 } in
  let tests =
    [ (* table 1 analog: observation construction *)
      Test.make ~name:"t1_observe" (Staged.stage (fun () -> S.observe s0));
      (* table 2 analog: one BFS expansion step *)
      Test.make ~name:"t2_next_states"
        (Staged.stage (fun () -> S.next scenario s0));
      (* table 3 analog: state fingerprinting *)
      Test.make ~name:"t3_fingerprint"
        (Staged.stage (fun () -> Fingerprint.of_state s0));
      (* table 4 analog: one full spec-level random walk *)
      Test.make ~name:"t4_random_walk"
        (Staged.stage (fun () -> Simulate.walk spec scenario walk_opts rng)) ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"bench" [ test ])
      in
      List.iter
        (fun instance ->
          let analyzed = Analyze.all ols instance results in
          Hashtbl.iter
            (fun name ols_result ->
              match Analyze.OLS.estimates ols_result with
              | Some [ est ] -> Fmt.pr "%-28s %12.1f ns/run@." name est
              | Some _ | None -> Fmt.pr "%-28s (no estimate)@." name)
            analyzed)
        instances)
    tests

(* ------------------------------------------------------------------ *)

let sections =
  [ "table1", table1;
    "table2", table2;
    "table3", table3;
    "table4", table4;
    "fig6", fig6;
    "fig7", fig7;
    "ablation", ablation;
    "scaling", scaling;
    "scaling-after", scaling_after;
    "memory", memory;
    "checkpoint", checkpoint_bench;
    "obs", obs_bench;
    "shrink", shrink_bench;
    "faults", faults_bench;
    "micro", micro ]

let () =
  (* child half of the memory section's process-per-row protocol *)
  (match Array.to_list Sys.argv with
  | [ _; "memory-row"; sys_name; workers ] ->
    memory_row_main sys_name (int_of_string workers);
    exit 0
  | _ -> ());
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  Fmt.pr "SandTable benchmark harness (scale %.2f)@." scale;
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown section %s (available: %s)@." name
          (String.concat ", " (List.map fst sections)))
    requested;
  write_bench_json ()
