(* Work-stealing engine (lib/par/ws_explorer): schedule-invariant totals
   and verdicts at exhaustion, checkpoint/resume across engines and worker
   counts, and the CLI contract around --strict-bfs. Unlike test_par, the
   equivalence asserted here is deliberately weaker — WS discovery depths
   are schedule-dependent, so only distinct/generated on exhaustive runs
   and violation verdicts are compared, never max_depth or any
   depth-budgeted counter. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f
let worker_counts = [ 1; 2; 4 ]

let totals (r : Explorer.result) = (r.distinct, r.generated)

let check_totals label seq (ws : Par.Ws_explorer.result) =
  Alcotest.(check (pair int int)) label (totals seq) (totals ws.base)

let exhausted label (o : Explorer.outcome) =
  match o with
  | Explorer.Exhausted -> ()
  | _ -> Alcotest.fail (label ^ ": run should exhaust")

(* A snapshot's visited iterator may stream over live engine state —
   capture hooks must materialize before the engine moves on. *)
let materialize (s : Explorer.snapshot) : Explorer.snapshot =
  let entries = ref [] in
  s.snap_visited (fun fp prov depth -> entries := (fp, prov, depth) :: !entries);
  let entries = !entries in
  { s with
    snap_visited = (fun f -> List.iter (fun (fp, p, d) -> f fp p d) entries)
  }

let capture_first cap =
  Some
    (fun _d snap ->
      if Option.is_none !cap then cap := Some (materialize (Lazy.force snap)))

(* Run the WS engine with [pulse_every:0.0] until some pulse catches the
   run mid-flight (snapshot hooks only fire while the frontier is
   non-empty, and a tiny space can drain before worker 0's first pulse —
   retry rather than flake). Returns the completed run and a materialized
   mid-run snapshot with fewer than [total] distinct states. *)
let capture_ws_snapshot ~total spec scenario =
  let rec go attempts =
    if attempts = 0 then
      Alcotest.fail "no pulse captured a mid-run snapshot in 10 attempts"
    else
      let cap = ref None in
      let opts = { Explorer.default with on_layer = capture_first cap } in
      let r =
        Par.Ws_explorer.check ~workers:2 ~pulse_every:0.0 spec scenario opts
      in
      match !cap with
      | Some s when s.Explorer.snap_distinct < total -> (r, s)
      | _ -> go (attempts - 1)
  in
  go 10

let test_toy_exhaustive_invariance () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
  let spec = Toy_spec.spec () in
  List.iter
    (fun symmetry ->
      let opts = { Explorer.default with symmetry } in
      let seq = Explorer.check spec scenario opts in
      exhausted "sequential" seq.outcome;
      List.iter
        (fun workers ->
          let ws = Par.Ws_explorer.check ~workers spec scenario opts in
          let l = Fmt.str "sym=%b workers=%d" symmetry workers in
          exhausted l ws.base.outcome;
          check_totals (l ^ " totals") seq ws)
        worker_counts)
    [ false; true ]

let test_toy_violation_verdict () =
  (* early stop makes totals schedule-dependent; the verdict is not *)
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
      match
        (Par.Ws_explorer.check ~workers spec scenario Explorer.default).base
          .outcome
      with
      | Explorer.Violation wv ->
        Alcotest.(check string)
          (Fmt.str "invariant workers=%d" workers)
          sv.invariant wv.invariant
      | _ -> Alcotest.fail "work-stealing run must violate")
    worker_counts

let tiny_budget =
  (* every recognised bound closed off so all 8 systems exhaust quickly *)
  [ ("timeouts", 2); ("requests", 1); ("crashes", 0); ("restarts", 0);
    ("partitions", 0); ("buffer", 2); ("drops", 0); ("dups", 0);
    ("epochs", 1) ]

let test_registry_sweep_invariance () =
  let module R = Systems.Registry in
  let tiny (sys : R.t) =
    ( sys.name,
      sys.spec (Systems.Bug.flags []),
      Scenario.v ~name:(sys.name ^ "-tiny") ~nodes:2 ~workload:[ 1 ]
        tiny_budget )
  in
  (* xraft-kv at 3 nodes and 2 requests: histories long enough that the
     per-domain linearizability memo holds real entries on every worker *)
  let xraft_kv_3n =
    ( "xraft-kv-3n",
      (R.find "xraft-kv").spec (Systems.Bug.flags []),
      Scenario.v ~name:"xraft-kv-tiny" ~nodes:3 ~workload:[ 1; 2 ]
        [ ("timeouts", 3); ("requests", 2); ("crashes", 0); ("restarts", 0);
          ("partitions", 0); ("buffer", 2); ("drops", 0); ("dups", 0) ] )
  in
  List.iter
    (fun (name, spec, scenario) ->
      let seq = Explorer.check spec scenario Explorer.default in
      exhausted (name ^ " sequential") seq.outcome;
      Alcotest.(check bool)
        (name ^ " explores something") true (seq.generated > 0);
      List.iter
        (fun workers ->
          let ws =
            Par.Ws_explorer.check ~workers spec scenario Explorer.default
          in
          let l = Fmt.str "%s workers=%d" name workers in
          exhausted l ws.base.outcome;
          check_totals l seq ws)
        worker_counts)
    (List.map tiny R.all @ [ xraft_kv_3n ])

let resume_scenario = Toy_spec.scenario ~nodes:2 ~timeouts:6

let test_ws_resume_different_workers () =
  (* a mid-run unordered snapshot resumes at any worker count to the same
     exhaustive totals as the uninterrupted run *)
  let spec = Toy_spec.spec () in
  let seq = Explorer.check spec resume_scenario Explorer.default in
  exhausted "sequential" seq.outcome;
  let first, snap = capture_ws_snapshot ~total:seq.distinct spec resume_scenario in
  exhausted "interrupted original" first.base.outcome;
  check_totals "uninterrupted totals" seq first;
  (match snap.Explorer.snap_mode with
  | Explorer.Unordered -> ()
  | Explorer.Layered -> Alcotest.fail "WS snapshot must be Unordered");
  List.iter
    (fun workers ->
      let r =
        Par.Ws_explorer.check ~workers ~resume:snap spec resume_scenario
          Explorer.default
      in
      let l = Fmt.str "resumed workers=%d" workers in
      exhausted l r.base.outcome;
      check_totals l seq r)
    worker_counts

let test_layered_snapshot_resumes_in_ws () =
  (* strict-engine checkpoints seed the work-stealing engine *)
  let spec = Toy_spec.spec () in
  let seq = Explorer.check spec resume_scenario Explorer.default in
  exhausted "sequential" seq.outcome;
  let cap = ref None in
  let opts =
    { Explorer.default with
      on_layer =
        Some
          (fun d snap ->
            if d = 2 && Option.is_none !cap then
              cap := Some (materialize (Lazy.force snap))) }
  in
  ignore (Explorer.check spec resume_scenario opts);
  let snap =
    match !cap with Some s -> s | None -> Alcotest.fail "layer 2 not reached"
  in
  (match snap.Explorer.snap_mode with
  | Explorer.Layered -> ()
  | Explorer.Unordered -> Alcotest.fail "sequential snapshot must be Layered");
  List.iter
    (fun workers ->
      let r =
        Par.Ws_explorer.check ~workers ~resume:snap spec resume_scenario
          Explorer.default
      in
      let l = Fmt.str "layered resume workers=%d" workers in
      exhausted l r.base.outcome;
      check_totals l seq r)
    worker_counts

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_strict_engines_refuse_unordered () =
  let spec = Toy_spec.spec () in
  let cap = ref None in
  let opts = { Explorer.default with on_layer = capture_first cap } in
  ignore (Explorer.check spec resume_scenario opts);
  let snap =
    match !cap with Some s -> s | None -> Alcotest.fail "no layer fired"
  in
  let unordered = { snap with Explorer.snap_mode = Explorer.Unordered } in
  (match Explorer.check ~resume:unordered spec resume_scenario Explorer.default
   with
  | _ -> Alcotest.fail "sequential engine must refuse an unordered snapshot"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "seq names the mode" true (contains msg "unordered"));
  match
    Par.Par_explorer.check ~workers:2 ~resume:unordered spec resume_scenario
      Explorer.default
  with
  | _ -> Alcotest.fail "parallel engine must refuse an unordered snapshot"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "par names the mode" true (contains msg "unordered")

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-ws" ".d" in
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

let test_checkpoint_roundtrips_unordered () =
  (* Store.Checkpoint must persist the frontier mode: a WS snapshot loaded
     from disk still refuses strict engines and resumes in WS *)
  let spec = Toy_spec.spec () in
  let seq = Explorer.check spec resume_scenario Explorer.default in
  let _, snap = capture_ws_snapshot ~total:seq.distinct spec resume_scenario in
  with_tmpdir (fun dir ->
      let identity =
        Store.Checkpoint.identity spec resume_scenario Explorer.default
      in
      ignore (Store.Checkpoint.save ~dir ~identity snap);
      let loaded = Store.Checkpoint.load ~dir ~identity in
      (match loaded.Explorer.snap_mode with
      | Explorer.Unordered -> ()
      | Explorer.Layered -> Alcotest.fail "mode lost in the codec");
      Alcotest.(check int) "distinct preserved" snap.Explorer.snap_distinct
        loaded.Explorer.snap_distinct;
      let r =
        Par.Ws_explorer.check ~workers:2 ~resume:loaded spec resume_scenario
          Explorer.default
      in
      exhausted "resumed from disk" r.base.outcome;
      check_totals "resumed totals" seq r)

(* {2 CLI contract} — same harness as test_cli: spawn the real binary. *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/sandtable_cli.exe"

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_cli args =
  let out = Filename.temp_file "sandtable-ws" ".out" in
  let err = Filename.temp_file "sandtable-ws" ".err" in
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

let check_contains label haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected %S in:\n%s" label needle haystack

let occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

(* the verdict goes to stdout once; stderr carries only the engine
   summary and worker stats *)
let check_one_verdict label out err =
  Alcotest.(check int) (label ^ ": one distinct= line") 1
    (occurrences out "distinct=" + occurrences err "distinct=")

let test_cli_ws_checkpoint_and_strict_refusal () =
  with_tmpdir (fun dir ->
      let args =
        [ "check"; "pysyncobj"; "-j"; "2"; "--run-dir"; dir;
          "--checkpoint-every"; "1"; "--telemetry-every"; "0.05s";
          "--max-states"; "30000" ]
      in
      let code, out, err = run_cli args in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains "hit the budget" out "budget spent";
      check_one_verdict "budgeted run" out err;
      check_contains "checkpoint saved at a pulse" err "checkpoint at depth";
      check_contains "steal telemetry recorded"
        (slurp (Filename.concat dir "events.ndjsonl"))
        "steal_count";
      (* the checkpoint has an unordered frontier: strict-BFS must refuse
         it by name before touching the run dir... *)
      let code2, _, err2 = run_cli (args @ [ "--resume"; "--strict-bfs" ]) in
      Alcotest.(check int) "strict resume refused" 2 code2;
      check_contains "refusal names the mode" err2 "unordered";
      (* ...while the work-stealing engine picks it up *)
      let code3, out3, err3 = run_cli (args @ [ "--resume" ]) in
      Alcotest.(check int) "ws resume ok" 0 code3;
      check_contains "resumed from the checkpoint" err3 "resuming at depth";
      check_contains "reported a result" out3 "distinct=";
      check_one_verdict "resumed run" out3 err3)

let test_cli_shrink_under_ws () =
  with_tmpdir (fun dir ->
      let code, out, _ =
        run_cli
          [ "check"; "daosraft"; "--bugs"; "daos1"; "-j"; "2"; "--run-dir";
            dir; "--shrink" ]
      in
      Alcotest.(check int) "exit 1 = bug found" 1 code;
      check_contains "violation reported" out "violated at depth";
      check_contains "trace minimized" out "shrunk";
      check_contains "minimized trace replays" out "CONFIRMED")

let suite =
  ( "ws",
    [ case "toy exhaustive invariance (1/2/4 workers)"
        test_toy_exhaustive_invariance;
      case "toy violation verdict invariance" test_toy_violation_verdict;
      case "registry-wide exhaustive invariance (1/2/4 workers)"
        test_registry_sweep_invariance;
      case "unordered snapshot resumes at any worker count"
        test_ws_resume_different_workers;
      case "layered snapshot resumes in the WS engine"
        test_layered_snapshot_resumes_in_ws;
      case "strict engines refuse unordered snapshots"
        test_strict_engines_refuse_unordered;
      case "checkpoint codec round-trips the frontier mode"
        test_checkpoint_roundtrips_unordered;
      case "cli: WS checkpoints pulse; --strict-bfs resume refused"
        test_cli_ws_checkpoint_and_strict_refusal;
      case "cli: shrink works under work stealing" test_cli_shrink_under_ws ]
  )
