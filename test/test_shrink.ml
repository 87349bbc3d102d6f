(* Counterexample shrinking: re-addressing rule, validation contract,
   ddmin minimization, cross-worker determinism, and the full
   minimize-then-confirm loop on a real system. *)

open Sandtable
module R = Systems.Registry

(* A micro UDP-style spec: one src->dst buffer pre-filled with messages;
   delivering message [i] removes it, so eliding an earlier delivery
   shifts every later index — exactly the situation the shrinker's
   re-addressing rule exists for. *)
module Buf_spec = struct
  type state = { buf : string list; got : string list }

  let name = "bufspec"
  let init _ = [ { buf = [ "a"; "b"; "c" ]; got = [] } ]

  let next _ st =
    List.mapi
      (fun i m ->
        ( Trace.Deliver { src = 0; dst = 1; index = i },
          { buf = List.filteri (fun j _ -> j <> i) st.buf;
            got = st.got @ [ m ] } ))
      st.buf

  let constraint_ok _ _ = true

  let invariants =
    [ ("NoC", fun _ st -> not (List.mem "c" st.got));
      ("NoB", fun _ st -> not (List.mem "b" st.got)) ]

  let observe st =
    Tla.Value.record
      [ ("got", Tla.Value.seq (List.map Tla.Value.str st.got)) ]

  let permutable = false
  let permute _ st = st
  let node_key _ _ = 0

  (* a delivery's label is the message it takes *)
  let describe st (e : Trace.event) =
    match e with
    | Trace.Deliver { index; _ } ->
      Option.value ~default:"" (List.nth_opt st.buf index)
    | _ -> ""

  let pp_state ppf st = Fmt.pf ppf "%a" Fmt.(Dump.list string) st.got
end

let buf_spec : Spec.t = (module Buf_spec)
let buf_scenario = Scenario.v ~name:"buf" ~nodes:2 ~workload:[ 1 ] []

let deliver index = Trace.Deliver { src = 0; dst = 1; index }

(* events with their labels, as a trace file renders them: asserts the
   re-addressed output down to the message each delivery takes *)
let rendered labelled =
  List.map (fun (e, label) -> Trace.serialize_event ~label e) labelled

let minimized (o : Shrink.outcome) =
  rendered (List.combine o.minimized o.labels)

(* in-order delivery of the whole buffer (a, b, then c); under the
   invariant the violation is the delivery of the target message *)
let full_trace = [ deliver 0; deliver 0; deliver 0 ]

let test_readdress_by_desc () =
  (* minimizing "c was delivered" must elide a and b and re-address c to
     the index it occupies in the untouched buffer *)
  let o = Shrink.run buf_spec buf_scenario (Shrink.Invariant "NoC") full_trace in
  Alcotest.(check (list string)) "c re-addressed to live index"
    [ "deliver 0 1 2 c" ] (minimized o);
  Alcotest.(check int) "original length" 3 o.original_len;
  Alcotest.(check int) "minimized length" 1 o.minimized_len

let test_readdress_not_positional () =
  (* after eliding the delivery of a, a positional [index 0] match would
     deliver a again — identity matching must pick b at its shifted
     index instead *)
  let o =
    Shrink.run buf_spec buf_scenario (Shrink.Invariant "NoB")
      [ deliver 0; deliver 0 ]
  in
  Alcotest.(check (list string)) "b found by descriptor" [ "deliver 0 1 1 b" ]
    (minimized o)

let test_validate_rewrites_self_consistent () =
  (* whatever validate accepts must replay verbatim through the spec *)
  match Shrink.validate buf_spec buf_scenario (Shrink.Invariant "NoC")
          [ (deliver 0, "b"); (deliver 0, "c") ]
  with
  | None -> Alcotest.fail "candidate should validate"
  | Some t ->
    Alcotest.(check (list string)) "rewritten to live indexes"
      [ "deliver 0 1 1 b"; "deliver 0 1 1 c" ] (rendered t);
    Alcotest.(check bool) "replays verbatim" true
      (Spec.observations_along buf_spec buf_scenario (List.map fst t) <> None)

let test_custom_sees_readdressed () =
  (* a Custom oracle gets each candidate already re-addressed, so it
     replays verbatim, and keeps a prefix of it: here, up to the delivery
     of c *)
  let replayable = ref true in
  let upto_c t =
    if Spec.observations_along buf_spec buf_scenario t = None then
      replayable := false;
    let rec take acc = function
      | (e, "c") :: _ -> Some (List.rev (e :: acc))
      | (e, _) :: rest -> take (e :: acc) rest
      | [] -> None
    in
    take [] (List.combine t (Spec.labels buf_spec buf_scenario t))
  in
  let o = Shrink.run buf_spec buf_scenario (Shrink.Custom upto_c) full_trace in
  Alcotest.(check bool) "every candidate replayable" true !replayable;
  Alcotest.(check (list string)) "c re-addressed to live index"
    [ "deliver 0 1 2 c" ] (minimized o)

let test_rejects_passing_trace () =
  (* a trace that never breaks the invariant must be refused outright *)
  Alcotest.check_raises "non-failing input"
    (Invalid_argument
       "Shrink.run: the input trace does not reproduce the failure")
    (fun () ->
      ignore
        (Shrink.run buf_spec buf_scenario (Shrink.Invariant "NoC")
           [ deliver 0 ]))

let test_unknown_invariant () =
  match
    Shrink.run buf_spec buf_scenario (Shrink.Invariant "NoSuchInv") full_trace
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown invariant must raise"

(* ---- toy spec: suffix truncation, determinism ------------------------- *)

let tick node = Trace.Timeout { node; kind = "tick" }

let test_suffix_truncation () =
  (* events past the first violating state are dead weight: validate cuts
     them before ddmin even starts *)
  let spec = Toy_spec.spec ~limit:2 () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:6 in
  let trace = [ tick 0; tick 0; tick 1; tick 1 ] in
  let o = Shrink.run spec scenario (Shrink.Invariant "BelowLimit") trace in
  Alcotest.(check int) "original length" 4 o.original_len;
  Alcotest.(check (list string)) "truncated at the violation"
    [ "timeout 0 tick"; "timeout 0 tick" ] (minimized o)

let interleaved_trace nodes rounds =
  List.concat_map
    (fun _ -> List.init nodes (fun n -> tick n))
    (List.init rounds Fun.id)

let test_workers_identical () =
  (* the same violation shrunk at -j1/-j2/-j4 must yield byte-identical
     minimized traces and identical counters: candidate order is
     positional, rounds are complete-batch, selection is first-in-order *)
  let spec = Toy_spec.spec ~limit:3 () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:12 in
  let trace = interleaved_trace 3 4 in
  let outcomes =
    List.map
      (fun workers ->
        Par.Par_shrink.minimize ~workers spec scenario
          (Shrink.Invariant "BelowLimit") trace)
      [ 1; 2; 4 ]
  in
  match outcomes with
  | [ j1; j2; j4 ] ->
    Alcotest.(check int) "minimized to one node's ticks" 3 j1.Shrink.minimized_len;
    List.iter
      (fun (label, (jn : Shrink.outcome)) ->
        Alcotest.(check string)
          (label ^ " trace identical")
          (Trace.to_string j1.Shrink.minimized)
          (Trace.to_string jn.Shrink.minimized);
        Alcotest.(check int) (label ^ " tried") j1.Shrink.tried jn.Shrink.tried;
        Alcotest.(check int) (label ^ " accepted") j1.Shrink.accepted
          jn.Shrink.accepted;
        Alcotest.(check int) (label ^ " rounds") j1.Shrink.rounds
          jn.Shrink.rounds)
      [ ("j2", j2); ("j4", j4) ]
  | _ -> assert false

let test_parallel_eval_equals_sequential () =
  (* Par_shrink.eval is just a work distributor: same results array as
     List.map, in order *)
  let spec = Toy_spec.spec ~limit:2 () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:6 in
  let check = Shrink.validate spec scenario (Shrink.Invariant "BelowLimit") in
  let candidates =
    List.map
      (List.map (fun e -> (e, "")))
      [ [ tick 0; tick 0 ]; [ tick 0; tick 1 ]; [ tick 1; tick 1 ];
        [ tick 0 ]; [ tick 1; tick 1; tick 0 ] ]
  in
  let seq = Shrink.sequential_eval check candidates in
  Par.Pool.with_pool 3 (fun pool ->
      let par = Par.Par_shrink.eval pool check candidates in
      Alcotest.(check int) "same length" (List.length seq) (List.length par);
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "slot %d equal" i)
            true
            (match (a, b) with
            | None, None -> true
            | Some x, Some y -> rendered x = rendered y
            | _ -> false))
        (List.combine seq par))

(* ---- real system: minimize a random-walk violation, then confirm ------ *)

let test_wraft4_end_to_end () =
  let sys = R.find "wraft" in
  let flags = R.flags_of sys [ "wraft4" ] in
  let spec = sys.R.spec flags in
  let scenario = sys.R.default_scenario in
  let opts = { Simulate.default with max_depth = 60 } in
  let walks = Simulate.walks spec scenario opts ~seed:1 ~count:100 in
  match
    List.find_opt (fun (w : Simulate.walk) -> w.violation <> None) walks
  with
  | None -> Alcotest.fail "expected a violating walk for wraft4 at seed 1"
  | Some w ->
    let inv, idx = Option.get w.violation in
    let original = List.filteri (fun i _ -> i < idx) w.events in
    let o = Shrink.run spec scenario (Shrink.Invariant inv) original in
    Alcotest.(check bool) "strictly smaller" true
      (o.minimized_len < o.original_len);
    Alcotest.(check bool) "at least 30% shorter" true
      (float o.minimized_len <= 0.7 *. float o.original_len);
    Alcotest.(check bool) "minimized replays on the spec" true
      (Spec.observations_along spec scenario o.minimized <> None);
    (* the §3.4 loop on the shortened repro *)
    (match
       Replay.confirm ~mask:Systems.Common.conformance_mask spec
         ~boot:(fun sc -> sys.R.sut flags None sc)
         scenario o.minimized
     with
    | Replay.Confirmed _ -> ()
    | Replay.False_alarm d ->
      Alcotest.failf "minimized trace no longer confirms: %a"
        Conformance.pp_discrepancy d);
    (* shrinking is idempotent: a minimal trace stays put *)
    let o2 = Shrink.run spec scenario (Shrink.Invariant inv) o.minimized in
    Alcotest.(check string) "idempotent"
      (Trace.to_string o.minimized)
      (Trace.to_string o2.minimized)

let suite =
  ( "shrink",
    [ Alcotest.test_case "deliver re-addressed by descriptor" `Quick
        test_readdress_by_desc;
      Alcotest.test_case "identity beats positional match" `Quick
        test_readdress_not_positional;
      Alcotest.test_case "accepted candidates replay verbatim" `Quick
        test_validate_rewrites_self_consistent;
      Alcotest.test_case "custom oracle sees re-addressed candidates" `Quick
        test_custom_sees_readdressed;
      Alcotest.test_case "non-failing input rejected" `Quick
        test_rejects_passing_trace;
      Alcotest.test_case "unknown invariant rejected" `Quick
        test_unknown_invariant;
      Alcotest.test_case "suffix truncated at first violation" `Quick
        test_suffix_truncation;
      Alcotest.test_case "identical at -j1/-j2/-j4" `Quick
        test_workers_identical;
      Alcotest.test_case "parallel eval = sequential eval" `Quick
        test_parallel_eval_equals_sequential;
      Alcotest.test_case "wraft4: shrink + implementation confirm" `Slow
        test_wraft4_end_to_end ] )
