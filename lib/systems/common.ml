let mask_link link =
  let connected =
    Option.value
      (Tla.Value.field link "connected")
      ~default:(Tla.Value.bool false)
  in
  let queue_len =
    match Tla.Value.field link "queue" with
    | Some (Tla.Value.Seq q) -> List.length q
    | Some _ | None -> 0
  in
  Tla.Value.record
    [ "connected", connected; "queue_len", Tla.Value.int queue_len ]

let mask_net v =
  match v with
  | Tla.Value.Map links ->
    Tla.Value.map (List.map (fun (k, link) -> k, mask_link link) links)
  | Tla.Value.Bool _ | Tla.Value.Int _ | Tla.Value.Str _ | Tla.Value.Set _
  | Tla.Value.Seq _ | Tla.Value.Record _ ->
    v

let conformance_mask obs =
  let nodes =
    Option.value (Tla.Value.field obs "nodes") ~default:(Tla.Value.map [])
  in
  let net =
    Option.value (Tla.Value.field obs "net") ~default:(Tla.Value.map [])
  in
  Tla.Value.record [ "net", mask_net net; "nodes", nodes ]

let observe_cluster cluster =
  let cfg = Engine.Cluster.config cluster in
  let node_obs i =
    match Engine.Cluster.observe_node cluster i with
    | Some v -> v
    | None -> (
      match Engine.Cluster.status cluster i with
      | Engine.Cluster.Running | Engine.Cluster.Crashed ->
        Tla.Value.record [ "status", Tla.Value.str "down" ]
      | Engine.Cluster.Faulted e ->
        Tla.Value.record
          [ "error", Tla.Value.str e;
            "status", Tla.Value.str "faulted" ])
  in
  let nodes =
    Tla.Value.map
      (List.init cfg.Engine.Cluster.nodes (fun i ->
           Tla.Value.str (Sandtable.Trace.node_name i), node_obs i))
  in
  Tla.Value.record
    [ "net", Engine.Cluster.observe_net cluster; "nodes", nodes ]

let cluster_of_sut_config ?(timeouts = []) ?(cost = Engine.Cost.profile ())
    ~semantics ~boot (scenario : Sandtable.Scenario.t) =
  (* clock perturbation from the fault schedule: skews flow from the plan
     into the implementation-level virtual clocks at boot *)
  let clock_skew_ms =
    match scenario.faults with
    | Some plan -> plan.Sandtable.Fault_plan.pl_skew_ms
    | None -> []
  in
  Engine.Cluster.create
    { Engine.Cluster.nodes = scenario.nodes; semantics; timeouts;
      clock_skew_ms; cost; boot }

let sut ?timeouts ?cost ?(post = fun _ _ -> Ok ()) ~semantics ~boot scenario =
  let cluster =
    cluster_of_sut_config ?timeouts ?cost ~semantics ~boot scenario
  in
  { Sandtable.Conformance.execute =
      (fun event ->
        match Engine.Cluster.execute cluster event with
        | Ok () -> post cluster event
        | Error e -> Error (Fmt.str "%a" Engine.Cluster.pp_error e));
    observe = (fun () -> observe_cluster cluster) }
