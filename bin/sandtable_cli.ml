(* The sandtable command-line interface.

     dune exec bin/sandtable_cli.exe -- check pysyncobj --bugs PySyncObj#4
     dune exec bin/sandtable_cli.exe -- check wraft --run-dir runs/wraft --checkpoint-every 8
     dune exec bin/sandtable_cli.exe -- check wraft --run-dir runs/wraft --resume
     dune exec bin/sandtable_cli.exe -- runs runs/
     dune exec bin/sandtable_cli.exe -- conform wraft --bugs wraft6
     dune exec bin/sandtable_cli.exe -- simulate zookeeper --walks 500
     dune exec bin/sandtable_cli.exe -- rank pysyncobj
     dune exec bin/sandtable_cli.exe -- bugs
     dune exec bin/sandtable_cli.exe -- systems

   Output discipline: results (check/conform/simulate reports, listings) go
   to stdout; progress, headers and diagnostics go to stderr. Exit codes are
   uniform across commands: 0 = ran clean, 1 = found what it hunts
   (violation, discrepancy), 2 = usage or run error. *)

open Cmdliner
open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let exits =
  [ Cmd.Exit.info 0 ~doc:"checked clean: no violation or discrepancy found.";
    Cmd.Exit.info 1
      ~doc:"an invariant violation or discrepancy was found.";
    Cmd.Exit.info 2
      ~doc:
        "usage or run error: unknown system or flag, bad arguments, \
         unreadable run directory, resume identity mismatch." ]

let system_arg =
  let doc = "Target system (see the systems command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)

let bugs_arg =
  let doc =
    "Bug ids (PySyncObj#4) or raw flags (pso4) to enable, repeatable."
  in
  Arg.(value & opt_all string [] & info [ "bugs"; "b" ] ~docv:"BUG" ~doc)

let time_budget_arg =
  let doc = "Wall-clock budget in seconds." in
  Arg.(value & opt float 60. & info [ "time"; "t" ] ~docv:"SECONDS" ~doc)

let nodes_arg =
  let doc = "Override the node count of the default scenario." in
  Arg.(value & opt (some int) None & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let workers_arg =
  let doc =
    "Worker domains (default 1; 0 = one per core). check runs the \
     work-stealing engine at $(docv) > 1: exhaustive-run totals \
     (distinct/generated) and verdicts are identical at every worker \
     count, but discovery depth and order may differ — pass \
     $(b,--strict-bfs) for bit-for-bit layer order. simulate walks are \
     derived from --seed and the walk index alone, so $(docv) never \
     changes their results."
  in
  Arg.(value & opt int 1 & info [ "workers"; "j" ] ~docv:"N" ~doc)

let strict_bfs_arg =
  let doc =
    "Use the strict layer-synchronous BFS engines even at -j > 1: \
     bit-for-bit reproducible exploration order, minimal-depth \
     counterexamples, and layered checkpoints every engine can resume — \
     at the cost of a full barrier per layer (worse worker scaling). \
     Refuses (exit 2) to resume a checkpoint written by the \
     work-stealing engine, whose frontier has no layer structure."
  in
  Arg.(value & flag & info [ "strict-bfs" ] ~doc)

let run_dir_arg =
  let doc =
    "Run directory: writes manifest.json, periodic checkpoints and the \
     counterexample trace there (created if missing)."
  in
  Arg.(value & opt (some string) None & info [ "run-dir" ] ~docv:"DIR" ~doc)

let checkpoint_every_arg =
  let doc =
    "Checkpoint every $(docv) BFS layers — or, under the work-stealing \
     engine, every $(docv) quiescent pulses — into --run-dir (0 \
     disables)."
  in
  Arg.(value & opt int 16 & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let resume_arg =
  let doc =
    "Resume from the checkpoint in --run-dir; exploration continues \
     bit-for-bit where it stopped. Fails (exit 2) if the checkpoint was \
     written for a different system, scenario or flag configuration."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let spill_window_arg =
  let doc =
    "Keep about $(docv) frontier entries in memory, in every engine (with \
     --strict-bfs, $(docv) for the layer being expanded and $(docv) for the \
     one being built): past that, whole chunks of queued states go to \
     files under --run-dir's spill/ (or a temporary directory) as they \
     are, and are read back when their turn comes (0 = all in memory). \
     Exploration order is unchanged."
  in
  Arg.(value & opt int 0 & info [ "spill-window" ] ~docv:"N" ~doc)

let progress_every_arg =
  let doc =
    "Print a progress line to stderr every $(docv) distinct states (or \
     walks/rounds), or on a wall-clock cadence with a duration suffix \
     ($(b,2s), $(b,0.5s)). 0 = off."
  in
  Arg.(value & opt string "0" & info [ "progress-every" ] ~docv:"N|Ns" ~doc)

let max_states_arg =
  let doc =
    "Stop after $(docv) distinct states. Also gives --progress-every a \
     total to report percent-complete and an ETA against."
  in
  Arg.(value & opt (some int) None & info [ "max-states" ] ~docv:"N" ~doc)

let telemetry_every_arg =
  let doc =
    "With --run-dir, every barrier (a BFS layer, or a quiescent pulse of \
     the work-stealing engine) appends a layer record to events.ndjsonl. \
     Every $(docv) barriers, or on a wall-clock cadence with a duration \
     suffix ($(b,5s)) — which also sets the pulse period — the record \
     also carries per-worker telemetry (rates, wait split, steals, spill \
     bytes, table load, GC). Default: every barrier; 0 = counts only."
  in
  Arg.(
    value & opt string "1" & info [ "telemetry-every" ] ~docv:"K|Ks" ~doc)

(* parse a cadence-shaped flag, exiting 2 (usage) on a bad spelling *)
let with_parsed flag parse raw f =
  match parse raw with
  | Ok v -> f v
  | Error m ->
    Fmt.epr "%s: %s@." flag m;
    Store.Exit_code.usage

(* simulate/conform count walks, not states: hundreds, not millions — a
   time cadence ticks on every walk and lets the throttle gate output *)
let walk_granularity = function
  | Obs.Progress.Every_seconds _ -> 1
  | c -> Obs.Progress.states_granularity c

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON file of engine phases (expand, \
     barrier waits, checkpoint and spill I/O) to $(docv) — load it in \
     Perfetto or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let faults_arg =
  let doc =
    "Fault schedule driving exploration: a schedule file (s-expression \
     syntax) or the name of one of the system's named schedules (see the \
     faults command). Without it the scenario's flat fault budget is the \
     schedule: one phase with its crash, restart, partition, drop and dup \
     caps. Compile errors exit 2."
  in
  Arg.(
    value & opt (some string) None & info [ "faults" ] ~docv:"SCHEDULE" ~doc)

(* Observability is on exactly when some artefact asked for it; the probe
   is [None] otherwise, and every instrumentation hook in the engines
   compiles down to a no-op branch. *)
let obs_run ~workers ?trace_out ?run_dir ?telemetry () =
  if trace_out <> None || run_dir <> None then
    Some (Obs.Run.create ~workers ?trace_out ?dir:run_dir ?telemetry ())
  else None

let obs_probe = function Some o -> Obs.Run.probe o | None -> None

let resolve_workers = function 0 -> Domain.recommended_domain_count () | n -> max 1 n

let resolve name = try Ok (R.find name) with Not_found ->
  Error (`Msg (Fmt.str "unknown system %s (try: %s)" name
                 (String.concat ", " R.names)))

let scenario_of (sys : R.t) nodes =
  match nodes with
  | None -> sys.default_scenario
  | Some n -> { sys.default_scenario with nodes = n }

let with_system name bugs f =
  match resolve name with
  | Error (`Msg m) ->
    Fmt.epr "%s@." m;
    Store.Exit_code.usage
  | Ok sys -> (
    match R.flags_of sys bugs with
    | exception Invalid_argument m ->
      Fmt.epr "%s@." m;
      Store.Exit_code.usage
    | flags -> f sys flags)

(* --- fault-schedule resolution ---------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --faults ARG: an existing schedule file or one of the system's named
   schedules, compiled onto the scenario *)
let compile_schedule (sys : R.t) (scenario : Scenario.t) arg =
  let sched =
    if Sys.file_exists arg && not (Sys.is_directory arg) then
      Result.map_error (Fmt.str "%s: %s" arg)
        (Faults.Schedule.parse (read_file arg))
    else
      Option.to_result (R.schedule_of sys arg)
        ~none:
          (Fmt.str
             "unknown fault schedule %s for %s (named: %s; or pass a \
              schedule file)"
             arg sys.name
             (String.concat ", " (List.map fst sys.fault_schedules)))
  in
  Result.bind sched (fun sched -> Faults.Compile.apply sched scenario)

(* Resolve, compile onto the scenario and validate the result; schedule
   problems are usage errors (exit 2), like any other bad argument. *)
let with_faults ?probe (sys : R.t) (scenario : Scenario.t) arg f =
  let validated scenario =
    match Scenario.validate scenario with
    | Ok () -> f scenario
    | Error m ->
      Fmt.epr "%s@." m;
      Store.Exit_code.usage
  in
  match arg with
  | None -> validated scenario
  | Some arg -> (
    let t0 = Probe.now probe in
    let compiled = compile_schedule sys scenario arg in
    Probe.span_at probe "fault.compile" ~t0 ~t1:(Probe.now probe);
    match compiled with
    | Error m ->
      Fmt.epr "--faults %s: %s@." arg m;
      Store.Exit_code.usage
    | Ok scenario -> validated scenario)

(* --- check: specification-level model checking ----------------------- *)

let outcome_string = function
  | Explorer.Exhausted -> "exhausted"
  | Explorer.Violation v -> "violation: " ^ v.invariant
  | Explorer.Budget_spent -> "budget spent"

let save_trace dir ~labels (events : Trace.t) =
  Trace.save (Filename.concat dir "trace.bin") events;
  Trace.save_text (Filename.concat dir "trace.txt") ~labels events;
  Some "trace.bin"

(* --- counterexample shrinking (shared by check/simulate/conform/shrink) *)

let shrink_arg =
  let doc =
    "Minimize the counterexample before confirming it: ddmin-style event \
     elision where every candidate is re-validated against the \
     specification (deliveries re-addressed against the live buffers) and \
     must still end in the same failure."
  in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let minimized_file = "minimized.trace"

(* Write the minimized trace (binary and text) into the run dir and return
   the manifest's summary of it. *)
let save_minimized dir (sh : Shrink.outcome) =
  Trace.save (Filename.concat dir minimized_file) sh.minimized;
  Trace.save_text (Filename.concat dir "minimized.txt") ~labels:sh.labels
    sh.minimized;
  { Store.Manifest.ms_original = sh.original_len;
    ms_minimized = sh.minimized_len;
    ms_trace = minimized_file }

let print_shrink (sh : Shrink.outcome) =
  Fmt.pr "%a@.%a" Shrink.pp_outcome sh (Trace.pp_labelled sh.labels)
    sh.minimized

(* Shrink a violation found by check, tolerating (with a note on
   stderr) the input not reproducing — shrinking is best-effort sugar on
   top of a result that already stands on its own. *)
let try_shrink ?probe spec scenario oracle events =
  match Shrink.run ?probe spec scenario oracle events with
  | sh ->
    print_shrink sh;
    Some sh
  | exception Invalid_argument m ->
    Fmt.epr "shrink skipped: %s@." m;
    None

let check_cmd =
  let run name bugs time nodes workers strict_bfs run_dir every resume
      spill_window progress_every max_states telemetry_every trace_out
      do_shrink faults =
    with_system name bugs (fun sys flags ->
        with_parsed "--spill-window"
          (fun n ->
            if n >= 0 then Ok n
            else
              Error
                (Fmt.str "%d is negative (0 keeps the whole frontier in \
                          memory)" n))
          spill_window
        @@ fun spill_window ->
        with_parsed "--progress-every" Obs.Progress.parse_cadence
          progress_every
        @@ fun progress_cadence ->
        with_parsed "--telemetry-every" Obs.Progress.parse_cadence
          telemetry_every
        @@ fun telemetry ->
        let workers = resolve_workers workers in
        let spec = sys.spec flags in
        let obs = obs_run ~workers ?trace_out ?run_dir ~telemetry () in
        let probe = obs_probe obs in
        with_faults ?probe sys (scenario_of sys nodes) faults
        @@ fun scenario ->
        Fmt.epr "model checking %s on %a@." sys.name Scenario.pp scenario;
        let progress_label = Fmt.str "check[%s/%s]" sys.name scenario.name in
        let progress_every =
          Obs.Progress.states_granularity progress_cadence
        in
        let progress =
          if progress_every > 0 then begin
            let due = Obs.Progress.make_throttle progress_cadence in
            Some
              (fun (s : Explorer.stats) ->
                if due () then
                  Obs.Progress.eprint ~label:progress_label
                    ~unit_name:"distinct" ~count:s.distinct
                    ?total:max_states ~depth:s.depth ~generated:s.generated
                    ~frontier:s.frontier_len ~elapsed:s.elapsed ())
          end
          else None
        in
        let spill =
          if spill_window > 0 then
            Some
              { Frontier.window = spill_window;
                dir = Option.map (fun d -> Filename.concat d "spill") run_dir }
          else None
        in
        let base_opts =
          { Explorer.default with
            time_budget = Some time;
            max_states;
            progress_every = (if progress_every > 0 then progress_every else 0);
            progress;
            spill;
            probe }
        in
        let bug_flags = String.concat "," (Bug.Flags.elements flags) in
        let identity =
          Store.Checkpoint.identity ~extra:[ ("bugs", bug_flags) ] spec
            scenario base_opts
        in
        let ckpt_count = ref 0 in
        let opts =
          match run_dir with
          | Some dir when every > 0 ->
            { base_opts with
              on_layer =
                Some
                  (Store.Checkpoint.hook ?probe ~dir ~identity ~every
                     ~on_save:(fun st ->
                       incr ckpt_count;
                       Option.iter
                         (fun o ->
                           let open Store.Sjson in
                           Obs.Run.event o
                             [ ("type", Str "checkpoint");
                               ("depth", Num (float_of_int st.ck_depth));
                               ("distinct", Num (float_of_int st.ck_distinct));
                               ("bytes", Num (float_of_int st.ck_bytes));
                               ("seconds", Num st.ck_seconds) ])
                         obs;
                       Fmt.epr
                         "  checkpoint at depth %d: %d states, %d bytes, \
                          %.3fs@."
                         st.ck_depth st.ck_distinct st.ck_bytes st.ck_seconds)
                     ()) }
          | _ -> base_opts
        in
        let resume_snap =
          if not resume then Ok None
          else
            match run_dir with
            | None -> Error "--resume requires --run-dir"
            | Some dir -> (
              match Store.Checkpoint.load ~dir ~identity with
              | snap -> Ok (Some snap)
              | exception Store.Checkpoint.Mismatch m -> Error m
              | exception Binio.Corrupt m -> Error m
              | exception Sys_error m ->
                Error (m ^ " (no checkpoint to resume from?)"))
        in
        match resume_snap with
        | Error m ->
          Fmt.epr "%s@." m;
          Store.Exit_code.usage
        | Ok resume_snap ->
          Option.iter
            (fun snap ->
              Fmt.epr "resuming at depth %d: %d distinct states@."
                snap.Explorer.snap_depth snap.Explorer.snap_distinct)
            resume_snap;
          let resume_unordered =
            match resume_snap with
            | Some { Explorer.snap_mode = Explorer.Unordered; _ } -> true
            | _ -> false
          in
          if strict_bfs && resume_unordered then begin
            Fmt.epr
              "checkpoint frontier mode is unordered (written by the \
               work-stealing engine) but --strict-bfs demands layered \
               frontiers; resume without --strict-bfs, or start fresh@.";
            Store.Exit_code.usage
          end
          else begin
          (* Engine choice: strict layer-synchronous BFS on demand (or at
             -j1, where it is also the fastest), the barrier-free
             work-stealing engine otherwise — and whenever the checkpoint
             being resumed has an unordered frontier, which only that
             engine can restore. *)
          let engine =
            if strict_bfs then if workers = 1 then `Seq else `Par
            else if workers > 1 || resume_unordered then `Ws
            else `Seq
          in
          if engine = `Ws && workers = 1 && resume_unordered then
            Fmt.epr
              "note: unordered checkpoint — continuing with the \
               work-stealing engine at 1 worker@.";
          let engine_str =
            match engine with `Seq -> "seq" | `Par -> "par" | `Ws -> "ws"
          in
          let cores = Domain.recommended_domain_count () in
          if cores < workers then
            Fmt.epr
              "note: %d workers on %d cores — oversubscribed; throughput \
               figures will not be gated on this run@."
              workers cores;
          let manifest =
            Option.map
              (fun dir ->
                let m =
                  Store.Manifest.make ~system:sys.name ~scenario:scenario.name
                    ~identity:(Store.Checkpoint.digest_hex identity)
                    ~engine:engine_str ~workers ~cores
                    ~flags:
                      [ ("bugs", bug_flags);
                        ("nodes", string_of_int scenario.nodes);
                        ("spill_window", string_of_int spill_window);
                        ("checkpoint_every", string_of_int every) ]
                in
                (* the canonical schedule source rides in the manifest so
                   resume and shrink replay the same fault plan *)
                let m =
                  { m with
                    Store.Manifest.m_faults =
                      Option.map
                        (fun (p : Fault_plan.t) -> p.pl_src)
                        scenario.faults }
                in
                Store.Manifest.save ~dir m;
                m)
              run_dir
          in
          let shard_gauges shard_stats =
            (* fingerprint-table occupancy per shard, as end-of-run gauges *)
            Array.iteri
              (fun i (st : Par.Shard_set.stat) ->
                Probe.gauge probe
                  (Printf.sprintf "fptable.shard%02d.entries" i)
                  (float_of_int st.s_entries))
              shard_stats
          in
          let result =
            match engine with
            | `Seq -> Explorer.check ?resume:resume_snap spec scenario opts
            | `Par ->
              let r =
                Par.Par_explorer.check ~workers ?resume:resume_snap spec
                  scenario opts
              in
              Fmt.epr "parallel BFS: %d workers, %d layers@." r.workers
                r.layers;
              Fmt.epr "%a" Par.Par_explorer.pp_worker_stats r.worker_stats;
              shard_gauges r.shard_stats;
              r.base
            | `Ws ->
              (* a wall-clock telemetry cadence doubles as the pulse
                 period, so samples land exactly when asked for *)
              let pulse_every =
                match telemetry with
                | Obs.Progress.Every_seconds s -> Some s
                | Never | Every_states _ -> None
              in
              let r =
                Par.Ws_explorer.check ~workers ?pulse_every
                  ?resume:resume_snap spec scenario opts
              in
              Fmt.epr "work-stealing: %d workers, %d pulses, %d steals (%d \
                       failed attempts)@."
                r.workers r.pulses r.steals r.steal_failed;
              Fmt.epr "%a" Par.Par_explorer.pp_worker_stats r.worker_stats;
              shard_gauges r.shard_stats;
              r.base
          in
          Fmt.pr "%a@." Explorer.pp_result result;
          (* shrink before Obs.Run.finish so its counters and spans land
             in metrics.json / the Chrome trace *)
          let shrink_outcome =
            match result.outcome with
            | Explorer.Violation v when do_shrink ->
              try_shrink ?probe spec scenario
                (Shrink.Invariant v.invariant) v.events
            | _ -> None
          in
          let trace_rel =
            match (run_dir, result.outcome) with
            | Some dir, Explorer.Violation v ->
              save_trace dir ~labels:v.labels v.events
            | _ -> None
          in
          let shrink_summary =
            match (run_dir, shrink_outcome) with
            | Some dir, Some sh -> Some (save_minimized dir sh)
            | _ -> None
          in
          let obs_summary =
            Option.map
              (fun o ->
                (match result.outcome with
                | Explorer.Violation v ->
                  let open Store.Sjson in
                  Obs.Run.event o
                    [ ("type", Str "violation");
                      ("invariant", Str v.invariant);
                      ("depth", Num (float_of_int v.depth)) ];
                  Obs.Run.mark o ("violation: " ^ v.invariant)
                | _ -> ());
                Obs.Run.finish o ~outcome:(outcome_string result.outcome)
                  ~distinct:result.distinct ~generated:result.generated
                  ~max_depth:result.max_depth ~duration:result.duration ())
              obs
          in
          Option.iter
            (fun (s : Obs.Run.summary) ->
              Fmt.epr
                "observed: %.0f states/s, peak frontier %d, barrier idle \
                 %.1f%%@."
                s.s_throughput s.s_peak_frontier s.s_barrier_idle_pct)
            obs_summary;
          Option.iter
            (fun dir ->
              let m = Option.get manifest in
              let m =
                { m with
                  Store.Manifest.m_status = Store.Manifest.Done;
                  m_outcome = Some (outcome_string result.outcome);
                  m_distinct = result.distinct;
                  m_generated = result.generated;
                  m_max_depth = result.max_depth;
                  m_duration = result.duration;
                  m_checkpoints = !ckpt_count;
                  m_checkpoint =
                    (if
                       Sys.file_exists
                         (Filename.concat dir Store.Checkpoint.file)
                     then Some Store.Checkpoint.file
                     else None);
                  m_trace = trace_rel;
                  m_shrink = shrink_summary }
              in
              Store.Manifest.save ~dir m;
              Fmt.epr "run recorded in %s@." (Filename.concat dir Store.Manifest.file))
            run_dir;
          (match result.outcome with
          | Explorer.Violation v ->
            let events =
              match shrink_outcome with
              | Some sh -> sh.Shrink.minimized
              | None -> v.events
            in
            Fmt.pr "@.confirming at the implementation level...@.";
            let confirmation =
              Replay.confirm ~mask:Systems.Common.conformance_mask spec
                ~boot:(fun sc -> sys.sut flags None sc)
                scenario events
            in
            Fmt.pr "%a@." Replay.pp_confirmation confirmation
          | _ -> ());
          Store.Exit_code.of_outcome result.outcome
          end)
  in
  let doc = "Model-check a system's specification (BFS) and confirm bugs." in
  Cmd.v (Cmd.info "check" ~doc ~exits)
    Term.(
      const run $ system_arg $ bugs_arg $ time_budget_arg $ nodes_arg
      $ workers_arg $ strict_bfs_arg $ run_dir_arg $ checkpoint_every_arg
      $ resume_arg $ spill_window_arg $ progress_every_arg $ max_states_arg
      $ telemetry_every_arg $ trace_out_arg $ shrink_arg $ faults_arg)

(* --- runs: list recorded runs ----------------------------------------- *)

let runs_cmd =
  let root_arg =
    let doc = "Directory holding run directories (or a run directory)." in
    Arg.(value & pos 0 string "runs" & info [] ~docv:"DIR" ~doc)
  in
  let run root =
    if not (Sys.file_exists root && Sys.is_directory root) then begin
      Fmt.epr "%s: not a directory@." root;
      Store.Exit_code.usage
    end
    else begin
      let self =
        if Sys.file_exists (Filename.concat root Store.Manifest.file) then
          [ (Filename.basename root, Store.Manifest.load ~dir:root) ]
        else []
      in
      let entries = self @ Store.Manifest.list_runs root in
      if entries = [] then Fmt.epr "no runs under %s@." root
      else
        List.iter
          (fun (name, m) ->
            match m with
            | Ok m -> Fmt.pr "%-24s %a@." name Store.Manifest.pp m
            | Error e -> Fmt.pr "%-24s unreadable manifest (%s)@." name e)
          entries;
      Store.Exit_code.ok
    end
  in
  let doc = "List recorded runs (their manifest.json summaries)." in
  Cmd.v (Cmd.info "runs" ~doc ~exits) Term.(const run $ root_arg)

(* --- simulate: random walks ------------------------------------------ *)

let walks_arg =
  Arg.(value & opt int 100 & info [ "walks" ] ~docv:"N" ~doc:"Walk count.")

let simulate_cmd =
  let run name bugs walks seed nodes workers progress_every trace_out
      do_shrink faults =
    with_system name bugs (fun sys flags ->
        with_parsed "--progress-every" Obs.Progress.parse_cadence
          progress_every
        @@ fun progress_cadence ->
        let workers = resolve_workers workers in
        let opts = { Simulate.default with max_depth = 60 } in
        let obs = obs_run ~workers ?trace_out () in
        let probe = obs_probe obs in
        with_faults ?probe sys (scenario_of sys nodes) faults
        @@ fun scenario ->
        let started = Unix.gettimeofday () in
        let progress_every = walk_granularity progress_cadence in
        let progress =
          if progress_every > 0 then begin
            let due = Obs.Progress.make_throttle progress_cadence in
            Some
              (fun n ->
                if due () then
                  Obs.Progress.eprint
                    ~label:(Fmt.str "simulate[%s/%s]" sys.name scenario.name)
                    ~unit_name:"walks" ~count:n ~total:walks
                    ~elapsed:(Unix.gettimeofday () -. started) ())
          end
          else None
        in
        (* Par_simulate at every worker count (1 spawns no domains): walk
           [i] depends only on (--seed, i), so -j never changes the walks,
           and a running aggregate keeps none of them but the first
           violating one *)
        let agg, stats =
          Par.Par_simulate.aggregate ~workers ?probe ~progress_every
            ?progress (sys.spec flags) scenario opts ~seed ~count:walks
        in
        if workers > 1 then begin
          Fmt.epr "parallel simulation: %d workers@." workers;
          Fmt.epr "%a" Par.Par_simulate.pp_worker_stats stats
        end;
        Fmt.pr "%a@." Simulate.pp_aggregate agg;
        (* shrink the first violating walk in walk order *)
        (if do_shrink then
           match agg.first_violation with
           | None -> Fmt.epr "shrink: no violating walk to minimize@."
           | Some w ->
             let inv, idx = Option.get w.violation in
             let original = List.filteri (fun i _ -> i < idx) w.events in
             ignore
               (try_shrink ?probe (sys.spec flags) scenario
                  (Shrink.Invariant inv) original));
        ignore
          (Option.map
             (fun o ->
               Obs.Run.finish o
                 ~outcome:
                   (if agg.violations > 0 then "violations" else "clean")
                 ~generated:agg.total_events
                 ~duration:(Unix.gettimeofday () -. started) ())
             obs);
        Store.Exit_code.of_simulation agg)
  in
  let doc = "Random-walk the specification (TLC simulation mode)." in
  Cmd.v (Cmd.info "simulate" ~doc ~exits)
    Term.(
      const run $ system_arg $ bugs_arg $ walks_arg $ seed_arg $ nodes_arg
      $ workers_arg $ progress_every_arg $ trace_out_arg $ shrink_arg
      $ faults_arg)

(* --- conform: conformance checking ------------------------------------ *)

let rounds_arg =
  Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"N" ~doc:"Walk rounds.")

let conform_cmd =
  let run name bugs rounds seed nodes progress_every trace_out do_shrink
      faults =
    with_system name bugs (fun sys flags ->
        with_parsed "--progress-every" Obs.Progress.parse_cadence
          progress_every
        @@ fun progress_cadence ->
        (* the spec models the fixed protocol; flags select impl bugs *)
        let spec = sys.spec Bug.Flags.empty in
        let obs = obs_run ~workers:1 ?trace_out () in
        let probe = obs_probe obs in
        with_faults ?probe sys (scenario_of sys nodes) faults
        @@ fun scenario ->
        let started = Unix.gettimeofday () in
        let progress_every = walk_granularity progress_cadence in
        let progress =
          if progress_every > 0 then begin
            let due = Obs.Progress.make_throttle progress_cadence in
            Some
              (fun round events ->
                if due () then
                  Obs.Progress.eprint
                    ~label:(Fmt.str "conform[%s/%s]" sys.name scenario.name)
                    ~unit_name:"rounds" ~count:round ~total:rounds
                    ~generated:events
                    ~elapsed:(Unix.gettimeofday () -. started) ())
          end
          else None
        in
        let report =
          Conformance.run ~mask:Systems.Common.conformance_mask ?probe
            ~progress_every ?progress spec
            ~boot:(fun sc -> sys.sut flags None sc)
            scenario ~rounds ~seed
        in
        Fmt.pr "%a@." Conformance.pp_report report;
        (* shrink the discrepancy: a candidate is accepted iff the
           implementation still diverges from the spec somewhere along it
           (truncated to that point) *)
        (match report.discrepancy with
        | Some d when do_shrink ->
          let truncate_at t i = List.filteri (fun j _ -> j <= i) t in
          let original = truncate_at d.Conformance.events d.failed_at in
          let boot sc = sys.sut flags None sc in
          let oracle =
            Shrink.Custom
              (fun t ->
                match
                  Replay.confirm ~mask:Systems.Common.conformance_mask spec
                    ~boot scenario t
                with
                | Replay.False_alarm d' ->
                  Some (truncate_at t d'.Conformance.failed_at)
                | Replay.Confirmed _ -> None)
          in
          (match Shrink.run ?probe spec scenario oracle original with
          | sh -> print_shrink sh
          | exception Invalid_argument m -> Fmt.epr "shrink skipped: %s@." m)
        | _ -> ());
        ignore
          (Option.map
             (fun o ->
               Obs.Run.finish o
                 ~outcome:
                   (match report.discrepancy with
                   | Some _ -> "discrepancy"
                   | None -> "conformant")
                 ~generated:report.total_events ~duration:report.duration ())
             obs);
        Store.Exit_code.of_conformance report)
  in
  let doc =
    "Conformance-check the fixed spec against a (possibly buggy) \
     implementation: round $(i,r) replays walk $(i,r)-1 of --seed's walk \
     stream (the stream simulate draws from), generated when its round \
     starts and dropped once replayed."
  in
  Cmd.v (Cmd.info "conform" ~doc ~exits)
    Term.(
      const run $ system_arg $ bugs_arg $ rounds_arg $ seed_arg $ nodes_arg
      $ progress_every_arg $ trace_out_arg $ shrink_arg $ faults_arg)

(* --- shrink: minimize a recorded counterexample ----------------------- *)

let shrink_cmd =
  let dir_arg =
    let doc =
      "Run directory holding a recorded counterexample (written by check \
       --run-dir when it finds a violation)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_DIR" ~doc)
  in
  (* usage-error short-circuiting: Error carries the exit code *)
  let ( let* ) r f = match r with Error code -> code | Ok v -> f v in
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "%s@." m; Error Store.Exit_code.usage) fmt in
  let run dir trace_out =
    let* m =
      Result.map_error
        (fun e -> Fmt.epr "%s@." e; Store.Exit_code.usage)
        (Store.Manifest.load ~dir)
    in
    let* sys =
      match resolve m.Store.Manifest.m_system with
      | Ok sys -> Ok sys
      | Error (`Msg e) -> fail "%s" e
    in
    let* flags =
      let bugs =
        match List.assoc_opt "bugs" m.m_flags with
        | None | Some "" -> []
        | Some s -> String.split_on_char ',' s
      in
      match R.flags_of sys bugs with
      | flags -> Ok flags
      | exception Invalid_argument e -> fail "%s" e
    in
    let* scenario =
      match
        Option.bind (List.assoc_opt "nodes" m.m_flags) int_of_string_opt
      with
      | Some n -> Ok { sys.R.default_scenario with nodes = n }
      | None -> fail "%s: no node count in the manifest flags" dir
    in
    if not (String.equal scenario.name m.m_scenario) then
      Fmt.epr "note: shrinking under scenario %s (run recorded %s)@."
        scenario.name m.m_scenario;
    (* the manifest carries the fault-schedule source: shrinking must replay
       candidates under the same plan or fault events would be disabled *)
    let* scenario =
      match m.m_faults with
      | None -> Ok scenario
      | Some src -> (
        match
          Result.bind (Faults.Schedule.parse src) (fun sched ->
              Faults.Compile.apply sched scenario)
        with
        | Ok sc -> Ok sc
        | Error e -> fail "manifest fault schedule: %s" e)
    in
    let* oracle =
      let violation_prefix = "violation: " in
      match m.m_outcome with
      | Some o when String.starts_with ~prefix:violation_prefix o ->
        Ok
          (Shrink.Invariant
             (String.sub o (String.length violation_prefix)
                (String.length o - String.length violation_prefix)))
      | o ->
        fail "run outcome is %S — nothing to shrink"
          (Option.value ~default:"unknown" o)
    in
    let* events =
      match m.m_trace with
      | None -> fail "run has no recorded counterexample trace"
      | Some rel -> (
        match Trace.load (Filename.concat dir rel) with
        | Ok events -> Ok events
        | Error e -> fail "%s" e)
    in
    let spec = sys.R.spec flags in
    (* no Obs.Run over the existing run dir: that would truncate its
       events.ndjsonl and overwrite metrics.json; --trace-out still works *)
    let obs = obs_run ~workers:1 ?trace_out () in
    let probe = obs_probe obs in
    Fmt.epr "shrinking the %d-event %s counterexample in %s@."
      (List.length events) sys.R.name dir;
    let* sh =
      match Shrink.run ?probe spec scenario oracle events with
      | sh -> Ok sh
      | exception Invalid_argument e -> fail "%s" e
    in
    print_shrink sh;
    Store.Manifest.save ~dir
      { m with Store.Manifest.m_shrink = Some (save_minimized dir sh) };
    Fmt.epr "minimized trace written to %s@."
      (Filename.concat dir minimized_file);
    ignore
      (Option.map
         (fun o ->
           Obs.Run.finish o ~outcome:"shrunk" ~generated:sh.Shrink.tried
             ~duration:sh.Shrink.duration ())
         obs);
    match oracle with
    | Shrink.Invariant _ ->
      (* the paper's §3.4 loop, on the minimized trace: confirmed means
         exit 0, an impl divergence on the shorter trace means exit 1 *)
      Fmt.pr "@.confirming at the implementation level...@.";
      let confirmation =
        Replay.confirm ~mask:Systems.Common.conformance_mask spec
          ~boot:(fun sc -> sys.R.sut flags None sc)
          scenario sh.Shrink.minimized
      in
      Fmt.pr "%a@." Replay.pp_confirmation confirmation;
      (match confirmation with
      | Replay.Confirmed _ -> Store.Exit_code.ok
      | Replay.False_alarm _ -> Store.Exit_code.found)
    | _ -> Store.Exit_code.ok
  in
  let doc =
    "Minimize the counterexample recorded in a run directory: ddmin-style \
     elision, every candidate re-validated against the specification, \
     then re-confirmed at the implementation level. Each round keeps the \
     first hit in generation order and evaluates no candidate after it \
     (the candidate count still includes the whole batch), so the result \
     depends on the recorded trace alone. Writes minimized.trace / \
     minimized.txt and records the original and minimized lengths in the \
     manifest."
  in
  Cmd.v (Cmd.info "shrink" ~doc ~exits)
    Term.(const run $ dir_arg $ trace_out_arg)

(* --- stats: summarize a run directory --------------------------------- *)

let stats_cmd =
  let dir_arg =
    let doc =
      "Run directory to summarize (written by check --run-dir). A \
       manifest of another format version, or any artefact that does not \
       decode, is refused by name (exit 2)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A" ~doc)
  in
  let dir_b_arg =
    let doc = "Second run directory — with --compare, the candidate run." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"RUN_B" ~doc)
  in
  let compare_arg =
    let doc =
      "Diff two runs: $(b,stats --compare RUN_A RUN_B) prints their \
       metrics side by side (baseline A, candidate B) with percent deltas, \
       aligned by depth and by duplicate-attribution key. With a \
       --fail-threshold-* option the command exits 1 when B regressed past \
       the threshold — a CI gate."
    in
    Arg.(value & flag & info [ "compare" ] ~doc)
  in
  let follow_arg =
    let doc =
      "Tail the run's events.ndjsonl live: print each layer record as it \
       is written and exit when the run's manifest leaves the running \
       state (exit 2 if the manifest does not load)."
    in
    Arg.(value & flag & info [ "follow" ] ~doc)
  in
  let fail_rate_arg =
    let doc =
      "With --compare: exit 1 if RUN_B's states/s dropped more than \
       $(docv) percent below RUN_A's."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-threshold-rate" ] ~docv:"PCT" ~doc)
  in
  let fail_dup_arg =
    let doc =
      "With --compare: exit 1 if RUN_B's duplicate ratio \
       (duplicates/generated) rose more than $(docv) percentage points \
       above RUN_A's."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-threshold-dup" ] ~docv:"PP" ~doc)
  in
  let run dir dir_b compare follow fail_rate pp_dup =
    let compare = compare || dir_b <> None in
    if follow && compare then begin
      Fmt.epr "--follow and --compare are mutually exclusive@.";
      Store.Exit_code.usage
    end
    else if follow then begin
      match Obs.Report.follow ~dir print_endline with
      | Ok () -> Store.Exit_code.ok
      | Error m ->
        Fmt.epr "%s@." m;
        Store.Exit_code.usage
    end
    else if compare then begin
      match dir_b with
      | None ->
        Fmt.epr "--compare needs two run directories: stats --compare A B@.";
        Store.Exit_code.usage
      | Some b -> (
        match Obs.Report.compare_runs dir b with
        | Error m ->
          Fmt.epr "%s@." m;
          Store.Exit_code.usage
        | Ok c -> (
          Fmt.pr "%a@." Obs.Report.pp_comparison c;
          match
            Obs.Report.regressions ?fail_rate_pct:fail_rate
              ?fail_dup_pp:pp_dup c
          with
          | [] -> Store.Exit_code.ok
          | reasons ->
            List.iter (Fmt.epr "regression: %s@.") reasons;
            Store.Exit_code.found))
    end
    else
      match Obs.Report.load dir with
      | Error m ->
        Fmt.epr "%s@." m;
        Store.Exit_code.usage
      | Ok r ->
        Fmt.pr "%a@." Obs.Report.pp r;
        Store.Exit_code.ok
  in
  let doc =
    "Summarize a run directory: manifest, recorded metrics (throughput, \
     peak frontier, barrier idle, phase timers), the exploration profile \
     (where generated states and duplicate work went) and the event log. \
     --follow tails a live run's layer records; --compare diffs two runs \
     and can gate CI on regression thresholds."
  in
  Cmd.v (Cmd.info "stats" ~doc ~exits)
    Term.(
      const run $ dir_arg $ dir_b_arg $ compare_arg $ follow_arg
      $ fail_rate_arg $ fail_dup_arg)

(* --- rank: Algorithm 1 ------------------------------------------------ *)

let rank_cmd =
  let run name seed =
    with_system name [] (fun sys _ ->
        let spec = sys.spec Bug.Flags.empty in
        let configs =
          [ { Rank.cname = "2 nodes"; nodes = 2; workload = [ 1; 2 ] };
            { Rank.cname = "3 nodes"; nodes = 3; workload = [ 1; 2 ] } ]
        in
        let budgets =
          [ [ "timeouts", 3; "requests", 2; "crashes", 0; "restarts", 0;
              "partitions", 0; "buffer", 3 ];
            [ "timeouts", 6; "requests", 3; "crashes", 1; "restarts", 1;
              "partitions", 1; "buffer", 4 ];
            [ "timeouts", 9; "requests", 4; "crashes", 2; "restarts", 2;
              "partitions", 2; "buffer", 8 ] ]
        in
        let ranked =
          Rank.rank spec ~configs ~budgets ~walks_per:80 ~walk_depth:40 ~seed
        in
        List.iter
          (fun (config, data) ->
            Fmt.pr "config %s:@." config.Rank.cname;
            List.iteri
              (fun i d -> Fmt.pr "  #%d %a@." (i + 1) Rank.pp_datum d)
              data)
          ranked;
        Store.Exit_code.ok)
  in
  let doc = "Rank budget constraints per configuration (Algorithm 1)." in
  Cmd.v (Cmd.info "rank" ~doc ~exits) Term.(const run $ system_arg $ seed_arg)

(* --- faults: list and inspect fault schedules ------------------------- *)

let faults_cmd =
  let system_opt_arg =
    let doc = "Restrict to one system (omit to list every named schedule)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)
  in
  let list_for (sys : R.t) =
    List.iter
      (fun (n, sched) ->
        Fmt.pr "%-10s %-18s %d phase%s@." sys.name n
          (List.length sched.Faults.Schedule.phases)
          (if List.length sched.Faults.Schedule.phases = 1 then "" else "s"))
      sys.fault_schedules
  in
  let run name faults =
    match name with
    | None ->
      List.iter list_for R.all;
      Store.Exit_code.ok
    | Some name ->
      with_system name [] (fun sys _ ->
          match faults with
          | None ->
            list_for sys;
            Store.Exit_code.ok
          | Some arg -> (
            match compile_schedule sys sys.default_scenario arg with
            | Error m ->
              Fmt.epr "--faults %s: %s@." arg m;
              Store.Exit_code.usage
            | Ok sc ->
              let plan = Option.get sc.Scenario.faults in
              if Fault_plan.is_noop plan then begin
                Fmt.epr
                  "--faults %s: schedule compiles to zero enabled fault \
                   events@."
                  arg;
                Store.Exit_code.usage
              end
              else begin
                Fmt.pr "%s" plan.Fault_plan.pl_src;
                Fmt.pr "plan:   %a@." Fault_plan.pp plan;
                Fmt.pr "budget: %a@." Scenario.pp_budget sc.budget;
                Store.Exit_code.ok
              end))
  in
  let doc =
    "List named fault schedules, or compile one (--faults FILE|NAME) \
     against a system's default scenario and print the canonical source, \
     the lowered plan with its digest (the schedule's identity in \
     checkpoints) and the merged budget. A schedule that parses but \
     enables no fault event is an error (exit 2)."
  in
  Cmd.v (Cmd.info "faults" ~doc ~exits)
    Term.(const run $ system_opt_arg $ faults_arg)

(* --- bugs / systems listings ------------------------------------------ *)

let bugs_cmd =
  let run () =
    List.iter
      (fun (sys : R.t) ->
        List.iter
          (fun (b : Bug.info) ->
            Fmt.pr "%-13s %-13s flags=%-16s %s@." b.id
              (Bug.stage_to_string b.stage)
              (String.concat "," b.flags)
              b.consequence)
          sys.bugs)
      R.all;
    Store.Exit_code.ok
  in
  Cmd.v
    (Cmd.info "bugs" ~doc:"List the reproduced bug registry (paper Table 2)."
       ~exits)
    Term.(const run $ const ())

let systems_cmd =
  let run () =
    List.iter
      (fun (sys : R.t) ->
        Fmt.pr "%-10s %s, %d bugs, default scenario: %a@." sys.name
          (match sys.semantics with
          | Sandtable.Spec_net.Tcp -> "TCP"
          | Sandtable.Spec_net.Udp -> "UDP")
          (List.length sys.bugs) Scenario.pp sys.default_scenario)
      R.all;
    Store.Exit_code.ok
  in
  Cmd.v
    (Cmd.info "systems" ~doc:"List the integrated systems (paper Table 1)."
       ~exits)
    Term.(const run $ const ())

let () =
  let doc = "specification-level model checking for distributed systems" in
  let info = Cmd.info "sandtable" ~version:"1.0.0" ~doc ~exits in
  exit
    (Cmd.eval' ~term_err:Store.Exit_code.usage
       (Cmd.group info
          [ check_cmd; runs_cmd; stats_cmd; shrink_cmd; simulate_cmd;
            conform_cmd; rank_cmd; faults_cmd; bugs_cmd; systems_cmd ]))
