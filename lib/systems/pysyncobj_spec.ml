(* Specification of PySyncObj's Raft core (paper §4.2), written against the
   actual implementation behaviour, including its unverified optimizations:
   the leader aggressively advances nextIndex after sending entries, and
   append replies carry a next-index hint computed from the request rather
   than from the receiver's log.

   Bug flags (paper Table 2):
     pso2 — leader assigns the recomputed commit index unconditionally
     pso3 — a reject reply resets nextIndex without the matchIndex floor
     pso4 — a success reply sets matchIndex without the monotonicity floor
     pso5 — commit advance skips the current-term entry check *)

open Raft_kernel
module Scenario = Sandtable.Scenario
module Counters = Sandtable.Counters
module Trace = Sandtable.Trace
module Arr = Sandtable.Arr
module Coverage = Sandtable.Coverage

(* Entries sent per AppendEntries: models the implementation's bounded
   append-entries batch. *)
let batch_size = 1

type node_st = {
  alive : bool;
  role : Types.role;
  current_term : int;
  voted_for : int option;
  votes : int list;  (* sorted ids of granted votes, candidates only *)
  log : Log.t;
  commit_index : int;
  next_index : int array;
  match_index : int array;
}

type state = {
  nodes : node_st array;
  net : Net.t;
  counters : Counters.t;
  flags : string list;  (* violated action properties, sorted *)
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

module Make (P : sig
  val bugs : Bug.Flags.t
end) : Sandtable.Spec.S with type state = state = struct
  type nonrec state = state

  let name = "pysyncobj"
  let has flag = Bug.Flags.mem flag P.bugs

  let init (scenario : Scenario.t) =
    let n = scenario.nodes in
    [ { nodes = Array.init n (fun _ -> fresh_node n);
        net = Net.create ~nodes:n Sandtable.Spec_net.Tcp;
        counters = Counters.zero;
        flags = [] } ]

  let raise_flag st flag =
    if List.mem flag st.flags then st
    else { st with flags = List.sort String.compare (flag :: st.flags) }

  let with_node st i f = { st with nodes = Arr.set st.nodes i (f st.nodes.(i)) }

  let send st ~src ~dst msg =
    let net, _accepted = Net.send st.net ~src ~dst msg in
    { st with net }

  let broadcast st ~src msg =
    Arr.foldi
      (fun st dst _ -> if dst = src then st else send st ~src ~dst msg)
      st st.nodes

  (* Step down to follower on observing a higher term. *)
  let maybe_step_down ns term =
    if term > ns.current_term then
      { ns with
        current_term = term;
        role = Types.Follower;
        voted_for = None;
        votes = [] }
    else ns

  let up_to_date ns ~last_log_term ~last_log_index =
    last_log_term > Log.last_term ns.log
    || (last_log_term = Log.last_term ns.log
       && last_log_index >= Log.last_index ns.log)

  (* Largest index replicated on a quorum (the leader's own log counts). *)
  let quorum_match st leader =
    let n = Array.length st.nodes in
    let replicated =
      List.init n (fun j ->
          if j = leader then Log.last_index st.nodes.(leader).log
          else st.nodes.(leader).match_index.(j))
    in
    let sorted = List.sort (fun a b -> Int.compare b a) replicated in
    List.nth sorted (Types.quorum n - 1)

  (* Recompute the leader's commit index after replication progress,
     honouring or skipping the safety checks depending on the bug flags. *)
  let advance_commit st leader =
    let ns = st.nodes.(leader) in
    let candidate = quorum_match st leader in
    let candidate =
      if has "pso5" then candidate
      else if
        candidate > ns.commit_index
        && Log.term_at ns.log candidate <> Some ns.current_term
      then begin
        Coverage.hit "pysyncobj/commit/older-term-refused";
        ns.commit_index
      end
      else candidate
    in
    let st =
      if candidate > ns.commit_index
         && Log.term_at ns.log candidate <> Some ns.current_term
      then raise_flag st "NoOlderTermCommit"
      else st
    in
    let new_commit =
      if has "pso2" then candidate else max ns.commit_index candidate
    in
    let st =
      if new_commit < ns.commit_index then
        raise_flag st "CommitIndexMonotonic"
      else st
    in
    with_node st leader (fun ns -> { ns with commit_index = new_commit })

  (* --- actions ------------------------------------------------------ *)

  let election_timeout st node =
    Coverage.hit "pysyncobj/election-timeout";
    let n = Array.length st.nodes in
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
      if Types.is_quorum 1 ~nodes:n then begin
        Coverage.hit "pysyncobj/election/self-quorum";
        with_node st node (fun ns ->
            { ns with
              role = Types.Leader;
              next_index = Array.make n (Log.last_index ns.log + 1);
              match_index = Array.make n 0 })
      end
      else st
    in
    broadcast st ~src:node
      (Msg.Request_vote
         { term = ns.current_term;
           last_log_index = Log.last_index ns.log;
           last_log_term = Log.last_term ns.log;
           prevote = false })

  (* The leader ships entries from nextIndex (bounded batch) and
     optimistically advances nextIndex past what it just sent. *)
  let append_entries_to st leader peer =
    let ns = st.nodes.(leader) in
    let next = ns.next_index.(peer) in
    let prev_index = next - 1 in
    let prev_term = Option.value (Log.term_at ns.log prev_index) ~default:0 in
    let entries =
      let rec take n l =
        if n = 0 then []
        else match l with [] -> [] | x :: r -> x :: take (n - 1) r
      in
      take batch_size (Log.entries_from ns.log next)
    in
    let st =
      send st ~src:leader ~dst:peer
        (Msg.Append_entries
           { term = ns.current_term;
             prev_index;
             prev_term;
             entries;
             commit = ns.commit_index })
    in
    if entries = [] then st
    else begin
      Coverage.hit "pysyncobj/heartbeat/aggressive-next";
      with_node st leader (fun ns ->
          { ns with
            next_index =
              Arr.set ns.next_index peer (prev_index + List.length entries + 1)
          })
    end

  let heartbeat st node =
    Coverage.hit "pysyncobj/heartbeat";
    Arr.foldi
      (fun st peer _ -> if peer = node then st else append_entries_to st node peer)
      st st.nodes

  let client_request st node value =
    Coverage.hit "pysyncobj/client-request";
    let st =
      with_node st node (fun ns ->
          { ns with
            log = Log.append ns.log (Types.entry ~term:ns.current_term ~value)
          })
    in
    advance_commit st node

  let handle_request_vote st ~dst ~src (m : Msg.t) =
    match m with
    | Request_vote { term; last_log_index; last_log_term; prevote = _ } ->
      let st = with_node st dst (fun ns -> maybe_step_down ns term) in
      let ns = st.nodes.(dst) in
      let grant =
        term = ns.current_term
        && (ns.voted_for = None || ns.voted_for = Some src)
        && up_to_date ns ~last_log_term ~last_log_index
      in
      Coverage.hit
        (if grant then "pysyncobj/vote/grant" else "pysyncobj/vote/deny");
      let st =
        if grant then
          with_node st dst (fun ns -> { ns with voted_for = Some src })
        else st
      in
      send st ~src:dst ~dst:src
        (Msg.Vote
           { term = st.nodes.(dst).current_term; granted = grant;
             prevote = false })
    | Vote _ | Append_entries _ | Append_reply _ | Snapshot _
    | Snapshot_reply _ ->
      assert false

  let become_leader st node =
    Coverage.hit "pysyncobj/election/won";
    let n = Array.length st.nodes in
    with_node st node (fun ns ->
        { ns with
          role = Types.Leader;
          next_index = Array.make n (Log.last_index ns.log + 1);
          match_index = Array.make n 0 })

  let handle_vote st ~dst ~src (m : Msg.t) =
    match m with
    | Vote { term; granted; prevote = _ } ->
      let st = with_node st dst (fun ns -> maybe_step_down ns term) in
      let ns = st.nodes.(dst) in
      if
        ns.role = Types.Candidate && term = ns.current_term && granted
        && not (List.mem src ns.votes)
      then begin
        let votes = List.sort Int.compare (src :: ns.votes) in
        let st = with_node st dst (fun ns -> { ns with votes }) in
        if
          Types.is_quorum (List.length votes)
            ~nodes:(Array.length st.nodes)
        then become_leader st dst
        else st
      end
      else begin
        Coverage.hit "pysyncobj/vote/stale-or-denied";
        st
      end
    | Request_vote _ | Append_entries _ | Append_reply _ | Snapshot _
    | Snapshot_reply _ ->
      assert false

  (* Append a run of entries at prev_index+1.., truncating on conflict. *)
  let store_entries log ~prev_index entries =
    let log, _ =
      List.fold_left
        (fun (log, idx) (e : Types.entry) ->
          match Log.term_at log idx with
          | Some t when t = e.term -> log, idx + 1  (* already present *)
          | Some _ ->
            Coverage.hit "pysyncobj/append/conflict-truncate";
            Log.append (Log.truncate_from log idx) e, idx + 1
          | None -> Log.append log e, idx + 1)
        (log, prev_index + 1) entries
    in
    log

  let handle_append_entries st ~dst ~src (m : Msg.t) =
    match m with
    | Append_entries { term; prev_index; prev_term; entries; commit } ->
      let st = with_node st dst (fun ns -> maybe_step_down ns term) in
      let ns = st.nodes.(dst) in
      if term < ns.current_term then begin
        Coverage.hit "pysyncobj/append/stale-term";
        send st ~src:dst ~dst:src
          (Msg.Append_reply
             { term = ns.current_term;
               success = false;
               next_hint = Log.last_index ns.log + 1 })
      end
      else begin
        (* Same-term AppendEntries: the sender is the current leader; a
           candidate in this term steps back to follower. *)
        let st =
          with_node st dst (fun ns -> { ns with role = Types.Follower })
        in
        let ns = st.nodes.(dst) in
        if Log.matches ns.log ~prev_index ~prev_term then begin
          Coverage.hit "pysyncobj/append/accept";
          let log = store_entries ns.log ~prev_index entries in
          let commit_index =
            max ns.commit_index (min commit (Log.last_index log))
          in
          let st =
            with_node st dst (fun ns -> { ns with log; commit_index })
          in
          (* The hint reflects the request, not the receiver's log: an
             unverified optimization of the implementation. *)
          let next_hint =
            if entries = [] then Log.last_index log + 1
            else prev_index + List.length entries + 1
          in
          send st ~src:dst ~dst:src
            (Msg.Append_reply
               { term = st.nodes.(dst).current_term;
                 success = true;
                 next_hint })
        end
        else begin
          Coverage.hit "pysyncobj/append/mismatch";
          send st ~src:dst ~dst:src
            (Msg.Append_reply
               { term = ns.current_term;
                 success = false;
                 next_hint = min prev_index (Log.last_index ns.log + 1) })
        end
      end
    | Request_vote _ | Vote _ | Append_reply _ | Snapshot _
    | Snapshot_reply _ ->
      assert false

  let handle_append_reply st ~dst ~src (m : Msg.t) =
    match m with
    | Append_reply { term; success; next_hint } ->
      let st = with_node st dst (fun ns -> maybe_step_down ns term) in
      let ns = st.nodes.(dst) in
      if ns.role <> Types.Leader || term < ns.current_term then begin
        Coverage.hit "pysyncobj/reply/ignored";
        st
      end
      else if success then begin
        Coverage.hit "pysyncobj/reply/success";
        let new_match =
          if has "pso4" then next_hint - 1
          else max ns.match_index.(src) (next_hint - 1)
        in
        let st =
          if new_match < ns.match_index.(src) then
            raise_flag st "MatchIndexMonotonic"
          else st
        in
        let new_next =
          if has "pso4" then next_hint else max ns.next_index.(src) next_hint
        in
        let st =
          with_node st dst (fun ns ->
              { ns with
                match_index = Arr.set ns.match_index src new_match;
                next_index = Arr.set ns.next_index src new_next })
        in
        advance_commit st dst
      end
      else begin
        Coverage.hit "pysyncobj/reply/reject";
        let new_next =
          if has "pso3" then next_hint
          else max next_hint (ns.match_index.(src) + 1)
        in
        with_node st dst (fun ns ->
            { ns with next_index = Arr.set ns.next_index src new_next })
      end
    | Request_vote _ | Vote _ | Append_entries _ | Snapshot _
    | Snapshot_reply _ ->
      assert false

  let handle_message st ~dst ~src (m : Msg.t) =
    match m with
    | Request_vote _ -> handle_request_vote st ~dst ~src m
    | Vote _ -> handle_vote st ~dst ~src m
    | Append_entries _ -> handle_append_entries st ~dst ~src m
    | Append_reply _ -> handle_append_reply st ~dst ~src m
    | Snapshot _ | Snapshot_reply _ ->
      (* PySyncObj's modelled core has no snapshot transfer. *)
      assert false

  let crash st node =
    Coverage.hit "pysyncobj/crash";
    let n = Array.length st.nodes in
    let st =
      (* Volatile state is normalised at crash time so that equivalent
         post-crash states share a fingerprint. PySyncObj's default
         deployment keeps no journal: the log itself is volatile; only the
         raft metadata (term, vote) survives. *)
      with_node st node (fun ns ->
          { ns with
            alive = false;
            role = Types.Follower;
            votes = [];
            log = Log.empty;
            commit_index = 0;
            next_index = Array.make n 1;
            match_index = Array.make n 0 })
    in
    { st with net = Net.disconnect_node st.net node }

  let restart st node =
    Coverage.hit "pysyncobj/restart";
    let st = with_node st node (fun ns -> { ns with alive = true }) in
    { st with net = Net.reconnect_node st.net node }

  let partition st group =
    Coverage.hit "pysyncobj/partition";
    { st with net = Net.partition st.net ~group }

  let heal st =
    Coverage.hit "pysyncobj/heal";
    let net = Net.heal st.net in
    let net =
      Arr.foldi
        (fun net i ns -> if ns.alive then net else Net.disconnect_node net i)
        net st.nodes
    in
    { st with net }

  (* --- transition enumeration --------------------------------------- *)

  let current_leader st =
    let rec find i =
      if i >= Array.length st.nodes then None
      else if st.nodes.(i).alive && st.nodes.(i).role = Types.Leader then
        Some i
      else find (i + 1)
    in
    find 0

  let env_ops : state Sandtable.Envgen.ops =
    { counters = (fun st -> st.counters);
      with_counters = (fun st counters -> { st with counters });
      node_count = (fun st -> Array.length st.nodes);
      alive = (fun st node -> st.nodes.(node).alive);
      fully_connected = (fun st -> Net.fully_connected st.net);
      crash;
      restart;
      partition = (fun st group -> partition st group);
      heal;
      leader = current_leader }

  let next (scenario : Scenario.t) st =
    let budget key ~default =
      Scenario.budget_get scenario.budget key ~default
    in
    let transitions = ref [] in
    let add event st' = transitions := (event, st') :: !transitions in
    (* message deliveries *)
    List.iter
      (fun (src, dst, index, _msg) ->
        if st.nodes.(dst).alive then
          match Net.deliver st.net ~src ~dst ~index with
          | None -> ()
          | Some (m, net) ->
            let st' = handle_message { st with net } ~dst ~src m in
            add (Trace.Deliver { src; dst; index }) st')
      (Net.deliverable st.net);
    (* timeouts *)
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
            if ns.role <> Types.Leader then
              add
                (Trace.Timeout { node; kind = "election" })
                (election_timeout { st with counters } node);
            if ns.role = Types.Leader then
              add
                (Trace.Timeout { node; kind = "heartbeat" })
                (heartbeat { st with counters } node)
          end)
        st.nodes;
    (* client requests, at the leader *)
    if st.counters.requests < budget "requests" ~default:3 then
      Array.iteri
        (fun node ns ->
          if ns.alive && ns.role = Types.Leader then begin
            let value =
              List.nth scenario.workload
                (st.counters.requests mod List.length scenario.workload)
            in
            let op = "put:" ^ string_of_int value in
            let counters = Counters.bump st.counters (Trace.Client { node; op }) in
            add
              (Trace.Client { node; op })
              (client_request { st with counters } node value)
          end)
        st.nodes;
    List.rev !transitions @ Sandtable.Envgen.failure_events env_ops scenario st

  let constraint_ok (scenario : Scenario.t) st =
    Counters.within st.counters scenario.budget
    && Net.max_queue_len st.net
       <= Scenario.budget_get scenario.budget "buffer" ~default:4

  let views st = Array.map view_of st.nodes

  let invariants =
    (* CommitQuorumDurability is omitted: the journal-less (in-memory)
       PySyncObj deployment modelled here loses its log on crash, so
       committed entries are genuinely not crash-durable. *)
    List.map
      (fun (name, check) -> name, fun (_ : Scenario.t) st -> check (views st))
      (List.filter
         (fun (name, _) -> name <> "CommitQuorumDurability")
         Invariants.standard)
    @ List.map
        (fun flag ->
          flag, fun (_ : Scenario.t) st -> Invariants.no_flag flag st.flags)
        [ "CommitIndexMonotonic"; "MatchIndexMonotonic"; "NoOlderTermCommit" ]

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
        Fmt.pf ppf "%s: %s role=%a term=%d voted=%a commit=%d %a next=%a match=%a@."
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
