open Sandtable

let case name f = Alcotest.test_case name `Quick f

let test_patterns () =
  (* a pattern sees each enabled event with its label *)
  let open Script in
  let ae = Trace.Deliver { src = 0; dst = 1; index = 0 } in
  Alcotest.(check bool) "timeout" true
    (timeout 1 "tick" (Trace.Timeout { node = 1; kind = "tick" }) "");
  Alcotest.(check bool) "timeout kind" false
    (timeout 1 "tick" (Trace.Timeout { node = 1; kind = "tock" }) "");
  Alcotest.(check bool) "deliver" true (deliver ~src:0 ~dst:1 ae "AE(x)");
  Alcotest.(check bool) "deliver_msg match" true
    (deliver_msg ~src:0 ~dst:1 "AE(" ae "AE(t1)");
  Alcotest.(check bool) "deliver_msg mismatch" false
    (deliver_msg ~src:0 ~dst:1 "RV(" ae "AE(t1)");
  Alcotest.(check bool) "any" true (any Trace.Heal "")

let test_run_success () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
  let script =
    [ Script.timeout 0 "tick"; Script.timeout 1 "tick"; Script.timeout 0 "tick" ]
  in
  match Script.run (Toy_spec.spec ()) scenario script with
  | Ok events -> Alcotest.(check int) "length" 3 (List.length events)
  | Error f -> Alcotest.failf "failed: %a" Script.pp_failure f

let test_run_failure_reports_enabled () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:1 in
  let script = [ Script.timeout 0 "tick"; Script.timeout 0 "tick" ] in
  match Script.run (Toy_spec.spec ()) scenario script with
  | Ok _ -> Alcotest.fail "budget exceeded should fail"
  | Error f ->
    Alcotest.(check int) "failing step" 1 f.at;
    Alcotest.(check int) "no events enabled" 0 (List.length f.enabled)

let test_violation_after () =
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let spec = Toy_spec.spec ~limit:2 () in
  let tick node = Trace.Timeout { node; kind = "tick" } in
  (match Script.violation_after spec scenario [ tick 0; tick 0 ] with
  | Some ("BelowLimit", 2) -> ()
  | _ -> Alcotest.fail "violation expected at event 2");
  match Script.violation_after spec scenario [ tick 0; tick 1 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "balanced ticks stay below limit"

let suite =
  ( "script",
    [ case "pattern matching" test_patterns;
      case "run success" test_run_success;
      case "failure reports enabled set" test_run_failure_reports_enabled;
      case "violation_after" test_violation_after ] )
