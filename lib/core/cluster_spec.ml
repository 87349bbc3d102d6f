module Record (Net : Spec_net.S) = struct
  type 'node t = {
    nodes : 'node array;
    net : Net.t;
    counters : Counters.t;
    flags : string list;
  }

  let init semantics fresh (scenario : Scenario.t) =
    let n = scenario.nodes in
    [ { nodes = Array.init n (fresh ~nodes:n);
        net = Net.create ~nodes:n semantics;
        counters = Counters.zero;
        flags = [] } ]

  let with_node st i f = { st with nodes = Arr.set st.nodes i (f st.nodes.(i)) }

  let send st ~src ~dst msg =
    let net, _accepted = Net.send st.net ~src ~dst msg in
    { st with net }

  let broadcast st ~src msg =
    Arr.foldi
      (fun st dst _ -> if dst = src then st else send st ~src ~dst msg)
      st st.nodes

  let raise_flag st flag =
    if List.mem flag st.flags then st
    else { st with flags = List.sort String.compare (flag :: st.flags) }

  module State = struct
    module Net = Net

    let nodes st = st.nodes
    let net st = st.net
    let counters st = st.counters
    let flags st = st.flags
    let with_nodes st nodes = { st with nodes }
    let with_net st net = { st with net }
    let with_counters st counters = { st with counters }
  end
end

module type SYSTEM = sig
  val name : string

  type node
  type state

  module Net : Spec_net.S

  val nodes : state -> node array
  val net : state -> Net.t
  val counters : state -> Counters.t
  val flags : state -> string list
  val with_nodes : state -> node array -> state
  val with_net : state -> Net.t -> state
  val with_counters : state -> Counters.t -> state
  val default_requests : int
  val default_buffer : int
  val alive : node -> bool
  val is_leader : node -> bool
  val handle_message : state -> dst:int -> src:int -> Net.msg -> state
  val timeouts : (string * (node -> bool) * (state -> int -> state)) list
  val accepts_client : node -> bool
  val client_ops : ((int -> string) * (state -> int -> int -> state)) list
  val crash : nodes:int -> int -> node -> node
  val restart : node -> node
  val permute_node : int array -> node -> node
  val permute_msg : (int array -> Net.msg -> Net.msg) option
  val observe_node : node -> Tla.Value.t
  val observe_extra : state -> (string * Tla.Value.t) list
  val pp_node : Format.formatter -> int -> node -> unit
  val pp_extra : Format.formatter -> state -> unit
end

module Make (S : SYSTEM) = struct
  let crash_branch = S.name ^ "/crash"
  and restart_branch = S.name ^ "/restart"
  and partition_branch = S.name ^ "/partition"
  and heal_branch = S.name ^ "/heal"

  let crash st node =
    Coverage.hit crash_branch;
    let nodes = S.nodes st in
    let crashed = S.crash ~nodes:(Array.length nodes) node in
    let st = S.with_nodes st (Arr.update nodes node crashed) in
    S.with_net st (S.Net.disconnect_node (S.net st) node)

  let restart st node =
    Coverage.hit restart_branch;
    let st = S.with_nodes st (Arr.update (S.nodes st) node S.restart) in
    S.with_net st (S.Net.reconnect_node (S.net st) node)

  let partition st group =
    Coverage.hit partition_branch;
    S.with_net st (S.Net.partition (S.net st) ~group)

  (* Healing reconnects every link but those of crashed nodes. *)
  let heal st =
    Coverage.hit heal_branch;
    let net =
      Arr.foldi
        (fun net i ns ->
          if S.alive ns then net else S.Net.disconnect_node net i)
        (S.Net.heal (S.net st))
        (S.nodes st)
    in
    S.with_net st net

  let current_leader st =
    let nodes = S.nodes st in
    let rec find i =
      if i >= Array.length nodes then None
      else if S.alive nodes.(i) && S.is_leader nodes.(i) then Some i
      else find (i + 1)
    in
    find 0

  let env_ops : S.state Envgen.ops =
    { counters = S.counters;
      with_counters = S.with_counters;
      node_count = (fun st -> Array.length (S.nodes st));
      alive = (fun st node -> S.alive (S.nodes st).(node));
      fully_connected = (fun st -> S.Net.fully_connected (S.net st));
      crash;
      restart;
      partition;
      heal;
      leader = current_leader }

  let net_ops : S.state Envgen.net_ops =
    { net_deliverable =
        (fun st ->
          List.map
            (fun (src, dst, index, _msg) -> (src, dst, index))
            (S.Net.deliverable (S.net st)));
      net_drop =
        (fun st ~src ~dst ~index ->
          Option.map (S.with_net st) (S.Net.drop (S.net st) ~src ~dst ~index));
      net_duplicate =
        (fun st ~src ~dst ~index ->
          Option.map (S.with_net st)
            (S.Net.duplicate (S.net st) ~src ~dst ~index)) }

  (* The budget's bounds, resolved once per budget list. The two readers
     default an absent key apart: the constraint leaves a counter unbounded
     and the longest queue at [S.default_buffer], while the enumeration
     fires at most 3 timeouts and [S.default_requests] requests. *)
  type bounds = {
    caps : Counters.t;  (* the constraint's counter bounds *)
    buffer : int;
    timeouts : int;  (* the enumeration's *)
    requests : int;
  }

  let bounds =
    Scenario.memo (fun budget ->
        let get key ~default = Scenario.budget_get budget key ~default in
        { caps = Counters.bounds budget;
          buffer = get "buffer" ~default:S.default_buffer;
          timeouts = get "timeouts" ~default:3;
          requests = get "requests" ~default:S.default_requests })

  (* Every address [S.Net.deliverable] lists delivers. *)
  let take net ~src ~dst ~index =
    match S.Net.deliver net ~src ~dst ~index with
    | Some taken -> taken
    | None -> invalid_arg "Cluster_spec: no message at a deliverable address"

  let successors (scenario : Scenario.t) st =
    let bounds = bounds scenario.budget in
    let nodes = S.nodes st and net = S.net st and counters = S.counters st in
    let phase = Envgen.phase env_ops scenario st in
    let transitions = ref [] in
    let add event build = transitions := (event, build) :: !transitions in
    let bumped event = S.with_counters st (Counters.bump counters event) in
    List.iter
      (fun (src, dst, index, _msg) ->
        if S.alive nodes.(dst) then
          add (Trace.Deliver { src; dst; index }) (fun () ->
              let m, net = take net ~src ~dst ~index in
              S.handle_message (S.with_net st net) ~dst ~src m))
      (S.Net.deliverable net);
    if S.Net.semantics net = Spec_net.Udp then
      transitions :=
        List.rev_append
          (Envgen.packet_events env_ops net_ops phase st)
          !transitions;
    if counters.timeouts < bounds.timeouts then
      Array.iteri
        (fun node ns ->
          if S.alive ns && Envgen.timeout_allowed env_ops phase st ~node then
            List.iter
              (fun (kind, enabled, fire) ->
                if enabled ns then
                  let event = Trace.Timeout { node; kind } in
                  add event (fun () -> fire (bumped event) node))
              S.timeouts)
        nodes;
    if counters.requests < bounds.requests then
      Array.iteri
        (fun node ns ->
          if S.alive ns && S.accepts_client ns then begin
            let value =
              List.nth scenario.workload
                (counters.requests mod List.length scenario.workload)
            in
            List.iter
              (fun (op, apply) ->
                let event = Trace.Client { node; op = op value } in
                add event (fun () -> apply (bumped event) node value))
              S.client_ops
          end)
        nodes;
    List.rev_append !transitions (Envgen.failure_events env_ops phase st)

  let next scenario st = Spec.force (successors scenario st)

  let constraint_ok (scenario : Scenario.t) st =
    let bounds = bounds scenario.budget in
    Counters.within_bounds (S.counters st) bounds.caps
    && S.Net.max_queue_len (S.net st) <= bounds.buffer

  let permute p st =
    let net =
      match S.permute_msg with
      | None -> S.net st
      | Some rename -> S.Net.map_queues (rename p) (S.net st)
    in
    let nodes = Arr.permute p (Array.map (S.permute_node p) (S.nodes st)) in
    let st = S.with_nodes st nodes in
    S.with_net st (S.Net.permute p net)

  let describe st e = S.Net.describe (S.net st) e

  let observe st =
    let nodes = S.nodes st in
    Tla.Value.record
      (("counters", Counters.observe (S.counters st))
      :: ("flags", Tla.Value.set (List.map Tla.Value.str (S.flags st)))
      :: S.observe_extra st
      @ [ "net", S.Net.observe (S.net st);
          ( "nodes",
            Tla.Value.map
              (List.init (Array.length nodes) (fun i ->
                   Tla.Value.str (Trace.node_name i), S.observe_node nodes.(i)))
          ) ])

  let pp_state ppf st =
    Array.iteri (S.pp_node ppf) (S.nodes st);
    S.pp_extra ppf st;
    Fmt.pf ppf "in-flight=%d flags=[%a]@."
      (S.Net.total_in_flight (S.net st))
      Fmt.(list ~sep:(any ",") string)
      (S.flags st)
end
