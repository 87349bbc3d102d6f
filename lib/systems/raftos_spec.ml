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

type state = node_st Raft_spec.t

let fresh_node ~nodes:n _ =
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

(* RaftOS#4's oracle: a leader that has a current-term entry replicated on a
   quorum beyond its commit index has failed to advance commitment. The
   fixed code commits within the same atomic step, so this is never true at
   a state boundary. *)
let commit_advances_with_quorum views =
  Sandtable.Arr.for_alli
    (fun leader (v : View.t) ->
      (not (v.alive && v.role = Types.Leader))
      ||
      let qm = Raft_spec.quorum_match v.log v.match_index ~self:leader in
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

  open Raft_spec

  let step_down st node term =
    if term > st.nodes.(node).current_term then
      with_node st node (fun ns ->
          { ns with
            current_term = term;
            role = Types.Follower;
            voted_for = None;
            votes = [] })
    else st

  (* RaftOS walks from commit+1 upward; the fixed code skips older-term
     entries (committing them only once covered by a current-term entry),
     the buggy code breaks out of the loop. *)
  let advance_commit st leader =
    let ns = st.nodes.(leader) in
    let qm = quorum_match ns.log ns.match_index ~self:leader in
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
    let next_idx = ns.next_index.(peer) in
    let prev_index = next_idx - 1 in
    let prev_term = Option.value (Log.term_at ns.log prev_index) ~default:0 in
    send st ~src:leader ~dst:peer
      (Msg.Append_entries
         { term = ns.current_term;
           prev_index;
           prev_term;
           entries = Log.entries_from ns.log next_idx;
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
      && up_to_date ns.log ~last_log_term ~last_log_index
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

  include Sandtable.Cluster_spec.Make (struct
    include State

    type node = node_st
    type nonrec state = state

    let name = name
    let default_requests = 3
    let default_buffer = 4
    let alive ns = ns.alive
    let is_leader ns = ns.role = Types.Leader
    let handle_message = handle_message

    let timeouts =
      [ ("election", (fun ns -> not (is_leader ns)), election_timeout);
        ("heartbeat", is_leader, heartbeat) ]

    let accepts_client = is_leader
    let client_ops = [ ((fun v -> "put:" ^ string_of_int v), client_request) ]

    let crash ~nodes:n _ ns =
      { ns with
        alive = false;
        role = Types.Follower;
        votes = [];
        commit_index = 0;
        next_index = Array.make n 1;
        match_index = Array.make n 0 }

    let restart ns = { ns with alive = true }

    let permute_node p ns =
      { ns with
        voted_for = Option.map (fun v -> p.(v)) ns.voted_for;
        votes = List.sort Int.compare (List.map (fun v -> p.(v)) ns.votes);
        next_index = Arr.permute p ns.next_index;
        match_index = Arr.permute p ns.match_index }

    let permute_msg = None
    let observe_node ns = View.observe (view_of ns)
    let observe_extra _ = []
    let pp_node ppf i ns = View.pp ppf i (view_of ns)
    let pp_extra _ _ = ()
  end)

  let init = init Sandtable.Spec_net.Udp fresh_node

  let invariants =
    Raft_spec.invariants view_of
      (Invariants.standard
      @ [ "CommitAdvancesWithQuorum", commit_advances_with_quorum;
          "CommitIndexWithinLog", commit_within_log ])
      [ "MatchIndexMonotonic" ]

  let permutable = true
  let node_key st i = View.node_key ~self:i (view_of st.nodes.(i))
end

let spec ?(bugs = Bug.Flags.empty) () : Sandtable.Spec.t =
  (module Make (struct
    let bugs = bugs
  end))
