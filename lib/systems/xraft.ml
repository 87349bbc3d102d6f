(* Xraft integration (paper §4.2, Table 2 rows Xraft#1–#2).

   Xraft's internal state is observed through its logs (§A.1 "States
   observation"): the SUT here rebuilds the per-node role from the parsed
   STATE log lines rather than trusting the API observation, exercising the
   log-parsing channel during every conformance comparison. *)

module Scenario = Sandtable.Scenario

let name = "xraft"
let prevote = true
let kv = false
let semantics = Sandtable.Spec_net.Tcp
let timeouts = [ "election", 3000; "heartbeat", 1000 ]

let spec ?bugs () = Xraft_family.spec ~name ~prevote ~kv ?bugs ()
let boot ?bugs () = Xraft_family_impl.boot ?bugs ~prevote ~kv ()

(* Replace the API-observed role with the log-parsed one. *)
let observe_with_log_roles cluster =
  let obs = Common.observe_cluster cluster in
  let cfg = Engine.Cluster.config cluster in
  ignore cfg;
  match Tla.Value.field obs "nodes", Tla.Value.field obs "net" with
  | Some (Tla.Value.Map nodes), Some net ->
    let fix_node (key, node_obs) =
      let node_id =
        match key with
        | Tla.Value.Str s ->
          int_of_string (String.sub s 1 (String.length s - 1)) - 1
        | _ -> invalid_arg "xraft: bad node key"
      in
      match Tla.Value.field node_obs "role", node_obs with
      | Some api_role, Tla.Value.Record fields ->
        let parser = Engine.Cluster.log_parser cluster node_id in
        let role =
          match Engine.Log_parser.lookup parser "role" with
          | Some r -> Tla.Value.str r
          | None -> api_role
        in
        (* replaced in place, so the fields stay in canonical order *)
        ( key,
          Tla.Value.record
            (List.map
               (fun ((n, _) as f) -> if String.equal n "role" then n, role else f)
               fields) )
      | _ -> key, node_obs
    in
    Tla.Value.record
      [ "net", net; "nodes", Tla.Value.map (List.map fix_node nodes) ]
  | _ -> obs

let sut ?bugs ?cost scenario =
  let cluster =
    Common.cluster_of_sut_config ~timeouts ?cost ~semantics
      ~boot:(boot ?bugs ()) scenario
  in
  { Sandtable.Conformance.execute =
      (fun event ->
        match Engine.Cluster.execute cluster event with
        | Ok () -> Ok ()
        | Error e -> Error (Fmt.str "%a" Engine.Cluster.pp_error e));
    observe = (fun () -> observe_with_log_roles cluster) }

let bundle ?bugs scenario : Sandtable.Workflow.bundle =
  { bname = name;
    spec = spec ?bugs ();
    boot = (fun sc -> sut ?bugs sc);
    mask = Common.conformance_mask;
    scenario }

let scenario_3n =
  Scenario.v ~name:"xraft-3n" ~nodes:3 ~workload:[ 1; 2 ]
    [ "timeouts", 4; "requests", 2; "crashes", 1; "restarts", 1;
      "partitions", 1; "buffer", 4 ]

let scenario_2n =
  Scenario.v ~name:"xraft-2n" ~nodes:2 ~workload:[ 1; 2 ]
    [ "timeouts", 6; "requests", 3; "crashes", 1; "restarts", 1;
      "partitions", 1; "buffer", 4 ]

(* Xraft#1's shape: two simultaneous candidates; the denied vote is counted
   anyway, yielding two leaders in the same term. No failures needed. *)
let scenario_xraft1 =
  Scenario.v ~name:"xraft1" ~nodes:3 ~workload:[ 1 ]
    [ "timeouts", 3; "requests", 0; "crashes", 0; "restarts", 0;
      "partitions", 0; "buffer", 4 ]

let default_scenario = scenario_3n

(* Xraft relies on sleeps for initialization and synchronization (§5.3:
   ~24s per 38-event trace). *)
let cost_profile =
  Engine.Cost.profile ~init_ms:5000. ~per_event_ms:30. ~async_sleep_ms:480. ()

let all_flags = [ "xraft1"; "xraft2" ]

let bugs : Bug.info list =
  [ { id = "Xraft#1";
      system = name;
      flags = [ "xraft1" ];
      stage = Bug.Verification;
      status = "New";
      consequence = "More than one valid leader in the same term";
      invariant = Some "ElectionSafety";
      scenario = scenario_xraft1;
      paper_time = "3s";
      paper_depth = Some 8;
      paper_states = Some 3534 };
    { id = "Xraft#2";
      system = name;
      flags = [ "xraft2" ];
      stage = Bug.Conformance;
      status = "New";
      consequence = "Unhandled concurrent modification exception";
      invariant = None;
      scenario = scenario_3n;
      paper_time = "-";
      paper_depth = None;
      paper_states = None } ]
