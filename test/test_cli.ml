(* Golden tests for the CLI contract: exit codes (0 = clean/confirmed,
   1 = bug found, 2 = usage error) and stream separation (machine-readable
   results on stdout, progress/headers/diagnostics on stderr). Spawns the
   real binary — (deps ...) in test/dune keeps it built. *)

let case name f = Alcotest.test_case name `Quick f
let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/sandtable_cli.exe"

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "sandtable-cli" ".out" in
  let err = Filename.temp_file "sandtable-cli" ".err" in
  let fd_of path = Unix.openfile path [ O_WRONLY; O_TRUNC ] 0o600 in
  let fd_out = fd_of out and fd_err = fd_of err in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  let read path =
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> slurp path)
  in
  (code, read out, read err)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains label haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S in:\n%s" label needle haystack

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-cli" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let test_systems_listing () =
  let code, out, err = run_cli [ "systems" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "stdout lists systems" out "pysyncobj";
  Alcotest.(check string) "stderr silent" "" err

let test_unknown_system_usage () =
  let code, out, err = run_cli [ "check"; "nosuchsystem" ] in
  Alcotest.(check int) "exit 2" 2 code;
  check_contains "stderr explains" err "unknown system";
  Alcotest.(check string) "stdout clean" "" out

let test_unknown_flag_usage () =
  let code, _, err = run_cli [ "check"; "pysyncobj"; "--bugs"; "nope" ] in
  Alcotest.(check int) "exit 2" 2 code;
  check_contains "stderr explains" err "unknown bug or flag"

let test_check_finds_bug_and_records () =
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "run" in
      let code, out, err =
        run_cli
          [ "check"; "daosraft"; "--bugs"; "daos1"; "-j"; "1"; "--run-dir";
            dir; "--shrink" ]
      in
      Alcotest.(check int) "exit 1 on violation" 1 code;
      (* results on stdout, the scenario header on stderr *)
      check_contains "violation on stdout" out "violated at depth";
      check_contains "shrink summary on stdout" out "shrunk";
      check_contains "confirmation on stdout" out "CONFIRMED";
      check_contains "header on stderr" err "model checking daosraft";
      Alcotest.(check bool) "header not on stdout" false
        (contains out "model checking");
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " written") true
            (Sys.file_exists (Filename.concat dir f)))
        [ "manifest.json"; "trace.bin"; "minimized.trace"; "metrics.json" ];
      let manifest = slurp (Filename.concat dir "manifest.json") in
      check_contains "manifest records shrink" manifest "\"shrink\"";
      (* standalone shrink over the same run dir re-confirms: exit 0 *)
      let code, out, _ = run_cli [ "shrink"; dir ] in
      Alcotest.(check int) "shrink exit 0" 0 code;
      check_contains "shrink prints summary" out "shrunk";
      (* run dirs are discoverable and summarizable *)
      let code, out, _ = run_cli [ "runs"; dir ] in
      Alcotest.(check int) "runs exit 0" 0 code;
      check_contains "runs lists the manifest" out "daosraft";
      let code, out, _ = run_cli [ "stats"; dir ] in
      Alcotest.(check int) "stats exit 0" 0 code;
      check_contains "stats shows metrics" out "daosraft")

let test_clean_check_exit_zero () =
  let code, out, err =
    run_cli [ "check"; "pysyncobj"; "-t"; "1"; "-j"; "1" ]
  in
  Alcotest.(check int) "exit 0 when nothing found" 0 code;
  check_contains "summary on stdout" out "distinct=";
  check_contains "header on stderr" err "model checking pysyncobj"

let test_stats_compare_and_follow () =
  with_tmpdir (fun tmp ->
      let a = Filename.concat tmp "a" and b = Filename.concat tmp "b" in
      let check dir =
        run_cli
          [ "check"; "pysyncobj"; "-t"; "30"; "--max-states"; "3000";
            "--progress-every"; "1s"; "--run-dir"; dir ]
      in
      let code, _, _ = check a in
      Alcotest.(check int) "run A exits 0" 0 code;
      let code, _, _ = check b in
      Alcotest.(check int) "run B exits 0" 0 code;
      (* the instrumented run left both artefacts behind, and one event
         log carries the time series *)
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " written") true
            (Sys.file_exists (Filename.concat a f)))
        [ "events.ndjsonl"; "profile.json" ];
      Alcotest.(check bool) "no second log" false
        (Sys.file_exists (Filename.concat a "telemetry.ndjsonl"));
      (* plain stats renders the profile sections *)
      let code, out, _ = run_cli [ "stats"; a ] in
      Alcotest.(check int) "stats exit 0" 0 code;
      check_contains "profile rendered" out "top duplicate source";
      check_contains "telemetry summarized" out "telemetry:";
      check_contains "orbit-cache hit ratio" out "orbit cache:";
      check_contains "peak memory" out "peak RSS:";
      check_contains "visited-store size" out "visited store:";
      check_contains "frontier size" out "frontier: peak";
      check_contains "frontier bytes" out "MB resident";
      (* compare: identical configurations diff to +0.0% on exploration
         shape (timing-derived rows are free to differ) *)
      let code, out, _ = run_cli [ "stats"; "--compare"; a; b ] in
      Alcotest.(check int) "compare exit 0" 0 code;
      check_contains "side-by-side header" out "delta";
      check_contains "dup ratio row" out "dup ratio %";
      check_contains "identical shape" out "+0.0%";
      (* gate: a dup-ratio rise of 0pp trips a -1pp threshold (exit 1)
         and passes a +5pp one (exit 0) — deterministic, unlike rate *)
      let code, _, err =
        run_cli [ "stats"; "--compare"; a; b; "--fail-threshold-dup=-1.0" ]
      in
      Alcotest.(check int) "regression gate trips" 1 code;
      check_contains "verdict on stderr" err "regression";
      let code, _, _ =
        run_cli [ "stats"; "--compare"; a; b; "--fail-threshold-dup"; "5.0" ]
      in
      Alcotest.(check int) "gate passes in bounds" 0 code;
      (* --follow on a finished run prints every layer record and exits *)
      let code, out, _ = run_cli [ "stats"; "--follow"; a ] in
      Alcotest.(check int) "follow exit 0" 0 code;
      check_contains "samples printed" out "layer";
      (* --compare without a second directory is a usage error *)
      let code, _, _ = run_cli [ "stats"; "--compare"; a ] in
      Alcotest.(check int) "compare needs two dirs" 2 code)

(* ---- run directories fail closed ----------------------------------- *)

(* The CI profile baseline, a bounded strict-BFS pysyncobj run. *)
let baseline = "../ci/pysyncobj-baseline"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let copy_baseline dst =
  Unix.mkdir dst 0o700;
  Array.iter
    (fun f ->
      write_file (Filename.concat dst f) (slurp (Filename.concat baseline f)))
    (Sys.readdir baseline)

(* rewrite the top-level fields of a JSON object *)
let edit_fields text f =
  match Store.Sjson.of_string text with
  | Ok (Store.Sjson.Obj fields) ->
    Store.Sjson.to_string (Store.Sjson.Obj (f fields))
  | _ -> Alcotest.failf "not a JSON object: %s" text

let set_version v =
  List.map (fun (k, x) ->
      if k = "version" then (k, Store.Sjson.Num (float_of_int v)) else (k, x))

let v1_manifest =
  {|{
  "version": 1,
  "system": "toy",
  "scenario": "toy-2n",
  "identity": "deadbeef0123",
  "created": "2025-01-01T00:00:00Z",
  "engine": "seq",
  "workers": 1,
  "flags": {},
  "status": "done",
  "outcome": "exhausted",
  "distinct": 42,
  "generated": 99,
  "max_depth": 7,
  "duration_s": 0.5,
  "checkpoints": 0,
  "checkpoint": null,
  "trace": null
}|}

(* the CI baseline as the previous generation recorded it *)
let v5_manifest =
  {|{
  "version": 5,
  "system": "pysyncobj",
  "scenario": "pysyncobj-2n",
  "identity": "0cb052422fc4",
  "created": "2026-08-09T08:58:00Z",
  "engine": "par",
  "workers": 2,
  "flags": {
    "bugs": "",
    "nodes": "2",
    "spill_window": "0",
    "checkpoint_every": "0"
  },
  "status": "done",
  "outcome": "budget spent",
  "distinct": 4761,
  "generated": 10601,
  "max_depth": 9,
  "duration_s": 0.084498882293701172,
  "checkpoints": 0,
  "checkpoint": null,
  "trace": null,
  "metrics": {
    "states_per_sec": 125457.28076204665,
    "peak_frontier": 2262,
    "barrier_idle_pct": 5.818875194463522
  },
  "profile": {
    "peak_worker_skew_pct": 6.0931899641577063,
    "dup_top_source": "timeout n1"
  }
}|}

let test_older_manifests_refused () =
  with_tmpdir (fun root ->
      let current = slurp (Filename.concat baseline "manifest.json") in
      let manifests =
        [ (1, v1_manifest);
          (5, v5_manifest);
          (* v6 added [cores] to v5 *)
          ( 6,
            edit_fields v5_manifest (fun fields ->
                set_version 6 fields
                @ [ ("cores", Store.Sjson.Num 2.) ]) );
          (8, edit_fields current (set_version 8)) ]
      in
      List.iter
        (fun (v, text) ->
          let named = Printf.sprintf "version %d, expected 7" v in
          let dir = Filename.concat root (Printf.sprintf "v%d" v) in
          Unix.mkdir dir 0o700;
          write_file (Filename.concat dir "manifest.json") text;
          (match Store.Manifest.load ~dir with
          | Ok _ -> Alcotest.failf "v%d manifest loaded" v
          | Error e -> check_contains "load names the version" e named);
          List.iter
            (fun cmd ->
              let code, _, err = run_cli (cmd @ [ dir ]) in
              Alcotest.(check int)
                (Printf.sprintf "v%d: %s exits 2" v (String.concat " " cmd))
                2 code;
              check_contains "stderr names the version" err named)
            [ [ "stats" ]; [ "stats"; "--follow" ]; [ "shrink" ] ])
        manifests;
      let code, out, _ = run_cli [ "runs"; root ] in
      Alcotest.(check int) "runs carries on" 0 code;
      List.iter
        (fun (v, _) ->
          check_contains "runs lists it as unreadable" out
            (Printf.sprintf
               "unreadable manifest (%s/v%d/manifest.json: manifest version \
                %d, expected 7"
               root v v))
        manifests)

let test_profile_fail_closed () =
  with_tmpdir (fun tmp ->
      let b = Filename.concat tmp "b" in
      copy_baseline b;
      let profile = Filename.concat b "profile.json" in
      write_file profile
        (edit_fields (slurp profile) (List.remove_assoc "duplicates"));
      (match Obs.Profile.load ~dir:b with
      | Ok _ -> Alcotest.fail "a profile without duplicates loaded"
      | Error e -> check_contains "load names the field" e "duplicates");
      let code, _, err =
        run_cli
          [ "stats"; "--compare"; baseline; b; "--fail-threshold-dup"; "0.5" ]
      in
      Alcotest.(check int) "dup gate exits 2" 2 code;
      check_contains "stderr names the field" err "duplicates")

let test_follow_bad_manifest () =
  with_tmpdir (fun tmp ->
      let d = Filename.concat tmp "d" in
      copy_baseline d;
      write_file (Filename.concat d "manifest.json") {|{"version": 7|};
      let code, _, err = run_cli [ "stats"; "--follow"; d ] in
      Alcotest.(check int) "exit 2" 2 code;
      check_contains "stderr names the manifest" err "manifest.json")

let test_rate_gate_needs_manifest () =
  with_tmpdir (fun tmp ->
      let b = Filename.concat tmp "b" in
      copy_baseline b;
      Sys.remove (Filename.concat b "manifest.json");
      let code, _, err =
        run_cli
          [ "stats"; "--compare"; baseline; b; "--fail-threshold-rate"; "5" ]
      in
      Alcotest.(check int) "refused: exit 1" 1 code;
      check_contains "refused by name" err "refusing to gate throughput";
      check_contains "names what is missing" err "no manifest.json")

let test_bad_cadence_usage () =
  let code, _, err =
    run_cli [ "check"; "pysyncobj"; "--progress-every"; "2x" ]
  in
  Alcotest.(check int) "bad progress cadence exits 2" 2 code;
  check_contains "stderr explains" err "--progress-every";
  let code, _, err =
    run_cli [ "check"; "pysyncobj"; "--telemetry-every"; "fast" ]
  in
  Alcotest.(check int) "bad telemetry cadence exits 2" 2 code;
  check_contains "stderr explains" err "--telemetry-every"

let test_negative_spill_window_usage () =
  let code, out, err =
    run_cli
      [ "check"; "pysyncobj"; "-j"; "1"; "--max-states"; "2000";
        "--spill-window=-5" ]
  in
  Alcotest.(check int) "exit 2" 2 code;
  check_contains "stderr names the flag" err "--spill-window";
  check_contains "stderr names the value" err "-5";
  Alcotest.(check string) "stdout clean" "" out

let test_stats_missing_dir_usage () =
  let code, _, err = run_cli [ "stats"; "/nonexistent/run-dir" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "stderr explains" true (String.length err > 0)

let test_shrink_missing_dir_usage () =
  let code, _, err = run_cli [ "shrink"; "/nonexistent/run-dir" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "stderr explains" true (String.length err > 0)

let test_faults_unknown_schedule_usage () =
  (* "legacy" is no schedule: the plain budget already is that one *)
  List.iter
    (fun name ->
      let code, out, err = run_cli [ "check"; "pysyncobj"; "--faults"; name ] in
      Alcotest.(check int) (name ^ ": exit 2") 2 code;
      check_contains "stderr explains" err ("unknown fault schedule " ^ name);
      Alcotest.(check string) "stdout clean" "" out)
    [ "nosuch"; "legacy" ]

let test_faults_compile_error_usage () =
  with_tmpdir (fun tmp ->
      let file = Filename.concat tmp "bad.sexp" in
      let oc = open_out file in
      output_string oc "(schedule bad\n  (phase p (crash (limit 1) (nodes 9))))\n";
      close_out oc;
      let code, out, err = run_cli [ "check"; "pysyncobj"; "--faults"; file ] in
      Alcotest.(check int) "exit 2" 2 code;
      check_contains "stderr names the clause" err "node 9 out of range";
      Alcotest.(check string) "stdout clean" "" out)

let test_faults_command_lists_and_guards () =
  let code, out, _ = run_cli [ "faults" ] in
  Alcotest.(check int) "listing exits 0" 0 code;
  check_contains "lists a named schedule" out "leader-partition";
  (* inspecting a schedule prints its canonical source and merged budget *)
  let code, out, _ =
    run_cli [ "faults"; "pysyncobj"; "--faults"; "leader-partition" ]
  in
  Alcotest.(check int) "inspect exits 0" 0 code;
  check_contains "canonical source" out "(schedule leader-partition";
  (* the schedule's identity is the plan's digest, not a budget key *)
  let plan =
    let sys = Systems.Registry.find "pysyncobj" in
    Result.get_ok
      (Faults.Compile.to_plan ~nodes:sys.default_scenario.nodes
         (Option.get (Systems.Registry.schedule_of sys "leader-partition")))
  in
  check_contains "digest on the plan line" out
    (Printf.sprintf "plan:   leader-partition#%06x: "
       (Sandtable.Fault_plan.digest plan));
  Alcotest.(check bool) "no identity key in the budget" false
    (contains out "faults.id");
  (* a schedule with no enabled fault events is rejected: exit 2 *)
  with_tmpdir (fun tmp ->
      let file = Filename.concat tmp "noop.sexp" in
      let oc = open_out file in
      output_string oc "(schedule idle (phase p))\n";
      close_out oc;
      let code, _, err = run_cli [ "faults"; "pysyncobj"; "--faults"; file ] in
      Alcotest.(check int) "no-op schedule exits 2" 2 code;
      check_contains "stderr explains" err "zero enabled fault events")

let suite =
  ( "cli",
    [ case "systems listing" test_systems_listing;
      case "unknown system: exit 2" test_unknown_system_usage;
      case "unknown flag: exit 2" test_unknown_flag_usage;
      case "check+shrink+runs+stats round trip" test_check_finds_bug_and_records;
      case "clean check: exit 0" test_clean_check_exit_zero;
      case "stats compare/follow round trip" test_stats_compare_and_follow;
      case "older manifests refused by name" test_older_manifests_refused;
      case "profile.json read fail-closed" test_profile_fail_closed;
      case "follow on a bad manifest: exit 2" test_follow_bad_manifest;
      case "rate gate needs a manifest" test_rate_gate_needs_manifest;
      case "bad cadence flags: exit 2" test_bad_cadence_usage;
      case "negative spill window: exit 2" test_negative_spill_window_usage;
      case "stats on missing dir: exit 2" test_stats_missing_dir_usage;
      case "shrink on missing dir: exit 2" test_shrink_missing_dir_usage;
      case "unknown fault schedule: exit 2" test_faults_unknown_schedule_usage;
      case "fault schedule compile error: exit 2" test_faults_compile_error_usage;
      case "faults command lists and guards" test_faults_command_lists_and_guards ] )
