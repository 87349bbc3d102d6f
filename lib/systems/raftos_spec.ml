(* Specification of RaftOS (paper §4.2): an asyncio Python Raft library for
   replicating Python objects, making no network assumptions — the UDP
   failure model (loss, duplication, reordering) applies.

   Bug flags (Table 2):
     raftos1 — matchIndex assigned from the reply without the monotonicity
               floor (stale reordered replies regress it)
     raftos2 — the append path erases all entries after prevLogIndex before
               appending, losing already-matched (even committed) entries
     raftos4 — the commitment loop breaks at an older-term entry instead of
               skipping it, so quorum-replicated entries never commit *)

open Raft_kernel
module Scenario = Sandtable.Scenario
module Counters = Sandtable.Counters
module Trace = Sandtable.Trace
module Arr = Sandtable.Arr
module Coverage = Sandtable.Coverage

type node_st = {
  alive : bool;
  role : Types.role;
  current_term : int;
  voted_for : int option;
  votes : int list;
  log : Log.t;
  commit_index : int;
  next_index : int array;
  match_index : int array;
}

type state = {
  nodes : node_st array;
  net : Net.t;
  counters : Counters.t;
  flags : string list;
}

let fresh_node n =
  { alive = true;
    role = Types.Follower;
    current_term = 0;
    voted_for = None;
    votes = [];
    log = Log.empty;
    commit_index = 0;
    next_index = Array.make n 1;
    match_index = Array.make n 0 }

let view_of (ns : node_st) : View.t =
  { alive = ns.alive;
    role = ns.role;
    current_term = ns.current_term;
    voted_for = ns.voted_for;
    log = ns.log;
    commit_index = ns.commit_index;
    next_index = ns.next_index;
    match_index = ns.match_index }

(* Largest index replicated on a quorum, from the outside view; shared with
   the CommitAdvancesWithQuorum invariant. *)
let quorum_match_views (views : View.t array) leader =
  let n = Array.length views in
  let replicated =
    List.init n (fun j ->
        if j = leader then Log.last_index views.(leader).log
        else views.(leader).match_index.(j))
  in
  List.nth
    (List.sort (fun a b -> Int.compare b a) replicated)
    (Types.quorum n - 1)

(* RaftOS#4's oracle: a leader that has a current-term entry replicated on a
   quorum beyond its commit index has failed to advance commitment. The
   fixed code commits within the same atomic step, so this is never true at
   a state boundary. *)
let commit_advances_with_quorum views =
  Sandtable.Arr.for_alli
    (fun leader (v : View.t) ->
      (not (v.alive && v.role = Types.Leader))
      ||
      let qm = quorum_match_views views leader in
      qm <= v.commit_index || Log.term_at v.log qm <> Some v.current_term)
    views

(* Every alive node's commit index points inside its log (RaftOS#2 erases
   committed entries, leaving the commit index dangling). *)
let commit_within_log views =
  Array.for_all
    (fun (v : View.t) ->
      (not v.alive) || v.commit_index <= Log.last_index v.log)
    views

module Make (P : sig
  val bugs : Bug.Flags.t
end) : Sandtable.Spec.S with type state = state = struct
  type nonrec state = state

  let name = "raftos"
  let has flag = Bug.Flags.mem flag P.bugs
  let hit branch = Coverage.hit ("raftos/" ^ branch)

  let init (scenario : Scenario.t) =
    let n = scenario.nodes in
    [ { nodes = Array.init n (fun _ -> fresh_node n);
        net = Net.create ~nodes:n Sandtable.Spec_net.Udp;
        counters = Counters.zero;
        flags = [] } ]

  let raise_flag st flag =
    if List.mem flag st.flags then st
    else { st with flags = List.sort String.compare (flag :: st.flags) }

  let with_node st i f = { st with nodes = Arr.set st.nodes i (f st.nodes.(i)) }

  let send st ~src ~dst msg =
    let net, _ = Net.send st.net ~src ~dst msg in
    { st with net }

  let broadcast st ~src msg =
    Arr.foldi
      (fun st dst _ -> if dst = src then st else send st ~src ~dst msg)
      st st.nodes

  let step_down st node term =
    if term > st.nodes.(node).current_term then
      with_node st node (fun ns ->
          { ns with
            current_term = term;
            role = Types.Follower;
            voted_for = None;
            votes = [] })
    else st

  let up_to_date ns ~last_log_term ~last_log_index =
    last_log_term > Log.last_term ns.log
    || (last_log_term = Log.last_term ns.log
       && last_log_index >= Log.last_index ns.log)

  let views st = Array.map view_of st.nodes

  (* RaftOS walks from commit+1 upward; the fixed code skips older-term
     entries (committing them only once covered by a current-term entry),
     the buggy code breaks out of the loop. *)
  let advance_commit st leader =
    let vs = views st in
    let qm = quorum_match_views vs leader in
    let ns = st.nodes.(leader) in
    let rec scan i best =
      if i > qm then best
      else
        match Log.term_at ns.log i with
        | Some t when t = ns.current_term -> scan (i + 1) i
        | Some _ when has "raftos4" ->
          hit "commit/older-term-break";
          best
        | Some _ -> scan (i + 1) best
        | None -> scan (i + 1) best
    in
    let candidate = scan (ns.commit_index + 1) ns.commit_index in
    with_node st leader (fun ns ->
        { ns with commit_index = max ns.commit_index candidate })

  let become_leader st node =
    hit "election/won";
    let n = Array.length st.nodes in
    with_node st node (fun ns ->
        { ns with
          role = Types.Leader;
          next_index = Array.make n (Log.last_index ns.log + 1);
          match_index = Array.make n 0 })

  let election_timeout st node =
    hit "election/start";
    let st =
      with_node st node (fun ns ->
          { ns with
            role = Types.Candidate;
            current_term = ns.current_term + 1;
            voted_for = Some node;
            votes = [ node ] })
    in
    let ns = st.nodes.(node) in
    let st =
      if Types.is_quorum 1 ~nodes:(Array.length st.nodes) then
        become_leader st node
      else st
    in
    broadcast st ~src:node
      (Msg.Request_vote
         { term = ns.current_term;
           last_log_index = Log.last_index ns.log;
           last_log_term = Log.last_term ns.log;
           prevote = false })

  let append_entries_to st leader peer =
    let ns = st.nodes.(leader) in
    let next = ns.next_index.(peer) in
    let prev_index = next - 1 in
    let prev_term = Option.value (Log.term_at ns.log prev_index) ~default:0 in
    send st ~src:leader ~dst:peer
      (Msg.Append_entries
         { term = ns.current_term;
           prev_index;
           prev_term;
           entries = Log.entries_from ns.log next;
           commit = ns.commit_index })

  let heartbeat st node =
    hit "heartbeat";
    Arr.foldi
      (fun st peer _ -> if peer = node then st else append_entries_to st node peer)
      st st.nodes

  let client_request st node value =
    hit "client-request";
    let st =
      with_node st node (fun ns ->
          { ns with
            log = Log.append ns.log (Types.entry ~term:ns.current_term ~value)
          })
    in
    advance_commit st node

  let handle_vote_request st ~dst ~src ~term ~last_log_index ~last_log_term =
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    let grant =
      term = ns.current_term
      && (ns.voted_for = None || ns.voted_for = Some src)
      && up_to_date ns ~last_log_term ~last_log_index
    in
    hit (if grant then "vote/grant" else "vote/deny");
    let st =
      if grant then with_node st dst (fun ns -> { ns with voted_for = Some src })
      else st
    in
    send st ~src:dst ~dst:src
      (Msg.Vote
         { term = st.nodes.(dst).current_term; granted = grant;
           prevote = false })

  let handle_vote_reply st ~dst ~src ~term ~granted =
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    if
      ns.role = Types.Candidate && term = ns.current_term && granted
      && not (List.mem src ns.votes)
    then begin
      let votes = List.sort Int.compare (src :: ns.votes) in
      let st = with_node st dst (fun ns -> { ns with votes }) in
      if Types.is_quorum (List.length votes) ~nodes:(Array.length st.nodes)
      then become_leader st dst
      else st
    end
    else begin
      hit "vote/stale-reply";
      st
    end

  (* raftos2: the buggy write path always erases the suffix after
     prevLogIndex before writing, destroying already-matched entries when a
     stale AppendEntries is (re)delivered. *)
  let store_entries st dst ~prev_index entries =
    if has "raftos2" then begin
      if Log.last_index st.nodes.(dst).log > prev_index + List.length entries
      then hit "append/erase-suffix";
      with_node st dst (fun ns ->
          { ns with
            log =
              List.fold_left Log.append
                (Log.truncate_from ns.log (prev_index + 1))
                entries })
    end
    else
      let rec loop st idx = function
        | [] -> st
        | (e : Types.entry) :: rest ->
          let ns = st.nodes.(dst) in
          let st =
            match Log.term_at ns.log idx with
            | Some t when t = e.term -> st
            | Some _ ->
              hit "append/conflict-truncate";
              with_node st dst (fun ns ->
                  { ns with log = Log.append (Log.truncate_from ns.log idx) e })
            | None ->
              with_node st dst (fun ns -> { ns with log = Log.append ns.log e })
          in
          loop st (idx + 1) rest
      in
      loop st (prev_index + 1) entries

  let handle_append_entries st ~dst ~src ~term ~prev_index ~prev_term ~entries
      ~commit =
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    if term < ns.current_term then begin
      hit "append/stale-term";
      send st ~src:dst ~dst:src
        (Msg.Append_reply
           { term = ns.current_term;
             success = false;
             next_hint = Log.last_index ns.log + 1 })
    end
    else begin
      let st = with_node st dst (fun ns -> { ns with role = Types.Follower }) in
      let ns = st.nodes.(dst) in
      if Log.matches ns.log ~prev_index ~prev_term then begin
        hit "append/accept";
        let st = store_entries st dst ~prev_index entries in
        let st =
          with_node st dst (fun ns ->
              { ns with
                commit_index =
                  max ns.commit_index (min commit (Log.last_index ns.log)) })
        in
        send st ~src:dst ~dst:src
          (Msg.Append_reply
             { term = st.nodes.(dst).current_term;
               success = true;
               next_hint = Log.last_index st.nodes.(dst).log + 1 })
      end
      else begin
        hit "append/mismatch";
        send st ~src:dst ~dst:src
          (Msg.Append_reply
             { term = ns.current_term;
               success = false;
               next_hint = min prev_index (Log.last_index ns.log + 1) })
      end
    end

  let handle_append_reply st ~dst ~src ~term ~success ~next_hint =
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    if ns.role <> Types.Leader || term < ns.current_term then begin
      hit "reply/ignored";
      st
    end
    else if success then begin
      hit "reply/success";
      let new_match =
        if has "raftos1" then next_hint - 1
        else max ns.match_index.(src) (next_hint - 1)
      in
      let st =
        if new_match < ns.match_index.(src) then
          raise_flag st "MatchIndexMonotonic"
        else st
      in
      let st =
        with_node st dst (fun ns ->
            { ns with
              match_index = Arr.set ns.match_index src new_match;
              next_index =
                Arr.set ns.next_index src (max next_hint (new_match + 1)) })
      in
      advance_commit st dst
    end
    else begin
      hit "reply/reject";
      with_node st dst (fun ns ->
          { ns with
            next_index =
              Arr.set ns.next_index src
                (max next_hint (ns.match_index.(src) + 1)) })
    end

  let handle_message st ~dst ~src (m : Msg.t) =
    match m with
    | Request_vote { term; last_log_index; last_log_term; prevote = _ } ->
      handle_vote_request st ~dst ~src ~term ~last_log_index ~last_log_term
    | Vote { term; granted; prevote = _ } ->
      handle_vote_reply st ~dst ~src ~term ~granted
    | Append_entries { term; prev_index; prev_term; entries; commit } ->
      handle_append_entries st ~dst ~src ~term ~prev_index ~prev_term ~entries
        ~commit
    | Append_reply { term; success; next_hint } ->
      handle_append_reply st ~dst ~src ~term ~success ~next_hint
    | Snapshot _ | Snapshot_reply _ -> assert false

  let crash st node =
    hit "crash";
    let n = Array.length st.nodes in
    let st =
      with_node st node (fun ns ->
          { ns with
            alive = false;
            role = Types.Follower;
            votes = [];
            commit_index = 0;
            next_index = Array.make n 1;
            match_index = Array.make n 0 })
    in
    { st with net = Net.disconnect_node st.net node }

  let restart st node =
    hit "restart";
    let st = with_node st node (fun ns -> { ns with alive = true }) in
    { st with net = Net.reconnect_node st.net node }

  let env_ops : state Sandtable.Envgen.ops =
    { counters = (fun st -> st.counters);
      with_counters = (fun st counters -> { st with counters });
      node_count = (fun st -> Array.length st.nodes);
      alive = (fun st node -> st.nodes.(node).alive);
      fully_connected = (fun st -> Net.fully_connected st.net);
      crash;
      restart;
      partition =
        (fun st group ->
          hit "partition";
          { st with net = Net.partition st.net ~group });
      heal =
        (fun st ->
          hit "heal";
          let net = Net.heal st.net in
          let net =
            Arr.foldi
              (fun net i ns ->
                if ns.alive then net else Net.disconnect_node net i)
              net st.nodes
          in
          { st with net });
      leader =
        (fun st ->
          let rec find i =
            if i >= Array.length st.nodes then None
            else if st.nodes.(i).alive && st.nodes.(i).role = Types.Leader
            then Some i
            else find (i + 1)
          in
          find 0) }

  let net_ops : state Sandtable.Envgen.net_ops =
    { net_deliverable =
        (fun st ->
          List.map (fun (src, dst, index, _msg) -> (src, dst, index))
            (Net.deliverable st.net));
      net_drop =
        (fun st ~src ~dst ~index ->
          Option.map (fun net -> { st with net })
            (Net.drop st.net ~src ~dst ~index));
      net_duplicate =
        (fun st ~src ~dst ~index ->
          Option.map (fun net -> { st with net })
            (Net.duplicate st.net ~src ~dst ~index)) }

  let next (scenario : Scenario.t) st =
    let budget key ~default = Scenario.budget_get scenario.budget key ~default in
    let transitions = ref [] in
    let add event st' = transitions := (event, st') :: !transitions in
    let deliverable = Net.deliverable st.net in
    List.iter
      (fun (src, dst, index, _msg) ->
        if st.nodes.(dst).alive then
          match Net.deliver st.net ~src ~dst ~index with
          | None -> ()
          | Some (m, net) ->
            add (Trace.Deliver { src; dst; index })
              (handle_message { st with net } ~dst ~src m))
      deliverable;
    List.iter
      (fun (event, st') -> add event st')
      (Sandtable.Envgen.packet_events env_ops net_ops scenario st);
    if st.counters.timeouts < budget "timeouts" ~default:3 then
      Array.iteri
        (fun node ns ->
          if
            ns.alive
            && Sandtable.Envgen.timeout_allowed env_ops scenario st ~node
          then begin
            let counters =
              Counters.bump st.counters (Trace.Timeout { node; kind = "" })
            in
            let stb = { st with counters } in
            if ns.role <> Types.Leader then
              add
                (Trace.Timeout { node; kind = "election" })
                (election_timeout stb node);
            if ns.role = Types.Leader then
              add
                (Trace.Timeout { node; kind = "heartbeat" })
                (heartbeat stb node)
          end)
        st.nodes;
    if st.counters.requests < budget "requests" ~default:3 then
      Array.iteri
        (fun node ns ->
          if ns.alive && ns.role = Types.Leader then begin
            let value =
              List.nth scenario.workload
                (st.counters.requests mod List.length scenario.workload)
            in
            let op = "put:" ^ string_of_int value in
            let event = Trace.Client { node; op } in
            let counters = Counters.bump st.counters event in
            add event (client_request { st with counters } node value)
          end)
        st.nodes;
    List.rev !transitions @ Sandtable.Envgen.failure_events env_ops scenario st

  let constraint_ok (scenario : Scenario.t) st =
    Counters.within st.counters scenario.budget
    && Net.max_queue_len st.net
       <= Scenario.budget_get scenario.budget "buffer" ~default:4

  let invariants =
    List.map
      (fun (name, check) -> name, fun (_ : Scenario.t) st -> check (views st))
      (Invariants.standard
      @ [ "CommitAdvancesWithQuorum", commit_advances_with_quorum;
          "CommitIndexWithinLog", commit_within_log ])
    @ [ ( "MatchIndexMonotonic",
          fun (_ : Scenario.t) st ->
            Invariants.no_flag "MatchIndexMonotonic" st.flags ) ]

  let observe st =
    Tla.Value.record
      [ "counters", Counters.observe st.counters;
        "flags", Tla.Value.set (List.map Tla.Value.str st.flags);
        "net", Net.observe st.net;
        "nodes", View.observe_cluster (views st) ]

  let permutable = true
  let node_key st i = View.node_key ~self:i (view_of st.nodes.(i))

  let permute p st =
    let permute_node ns =
      { ns with
        voted_for = Option.map (fun v -> p.(v)) ns.voted_for;
        votes = List.sort Int.compare (List.map (fun v -> p.(v)) ns.votes);
        next_index = Arr.permute p ns.next_index;
        match_index = Arr.permute p ns.match_index }
    in
    { st with
      nodes = Arr.permute p (Array.map permute_node st.nodes);
      net = Net.permute p st.net }

  let describe st e = Net.describe st.net e

  let pp_state ppf st =
    Array.iteri
      (fun i ns ->
        Fmt.pf ppf
          "%s: %s role=%a term=%d voted=%a commit=%d %a next=%a match=%a@."
          (Trace.node_name i)
          (if ns.alive then "up" else "down")
          Types.pp_role ns.role ns.current_term
          Fmt.(option ~none:(any "-") int)
          ns.voted_for ns.commit_index Log.pp ns.log
          Fmt.(Dump.array int)
          ns.next_index
          Fmt.(Dump.array int)
          ns.match_index)
      st.nodes;
    Fmt.pf ppf "in-flight=%d flags=[%a]@." (Net.total_in_flight st.net)
      Fmt.(list ~sep:(any ",") string)
      st.flags
end

let spec ?(bugs = Bug.Flags.empty) () : Sandtable.Spec.t =
  (module Make (struct
    let bugs = bugs
  end))
