(* The WRaft codebase family (paper §4.2): WRaft is a C Raft library; both
   RedisRaft and DaosRaft are downstream forks. One parameterized
   specification covers all three, faithful to their shared code:

     - WRaft:     UDP failure model, log compaction, no PreVote
     - RedisRaft: TCP failure model, PreVote, WRaft bugs #2/#4/#6/#9 fixed
     - DaosRaft:  TCP failure model, PreVote, plus its own bug

   Bug flags (Table 2):
     wraft1 — append skips the conflict check for the first log entry
     wraft2 — AppendEntries sent instead of Snapshot after compaction
     wraft4 — current term regresses on stale vote requests
     wraft5 — retries after a reject carry empty logs
     wraft7 — a reject reply resets nextIndex without the matchIndex floor
     wraft9 — candidate advertises a wrong last-log term, blocking election
     daos1  — a leader grants (pre)votes to other nodes
   (wraft3/6/8 are implementation-only; see {!Wraft_family_impl}.) *)

open Raft_kernel
module Arr = Sandtable.Arr
module Coverage = Sandtable.Coverage

type node_st = {
  alive : bool;
  role : Types.role;
  current_term : int;
  voted_for : int option;
  votes : int list;
  prevotes : int list;  (* granted pre-votes collected before an election *)
  log : Log.t;
  commit_index : int;
  next_index : int array;
  match_index : int array;
  retry_pending : bool array;  (* peer rejected; the next AE is a retry *)
}

type state = node_st Raft_spec.t

let fresh_node ~nodes:n _ =
  { alive = true;
    role = Types.Follower;
    current_term = 0;
    voted_for = None;
    votes = [];
    prevotes = [];
    log = Log.empty;
    commit_index = 0;
    next_index = Array.make n 1;
    match_index = Array.make n 0;
    retry_pending = Array.make n false }

let view_of (ns : node_st) : View.t =
  { alive = ns.alive;
    role = ns.role;
    current_term = ns.current_term;
    voted_for = ns.voted_for;
    log = ns.log;
    commit_index = ns.commit_index;
    next_index = ns.next_index;
    match_index = ns.match_index }

module type PARAMS = sig
  val name : string
  val semantics : Sandtable.Spec_net.semantics
  val prevote : bool
  val compaction : bool
  val bugs : Bug.Flags.t
end

module Make (P : PARAMS) : Sandtable.Spec.S with type state = state = struct
  type nonrec state = state

  let name = P.name
  let has flag = Bug.Flags.mem flag P.bugs
  let hit branch = Coverage.hit (P.name ^ "/" ^ branch)

  open Raft_spec

  (* wraft4: the buggy code adopts the term of any vote request, even a
     stale one, regressing currentTerm. *)
  let adopt_term st node term =
    let ns = st.nodes.(node) in
    if term > ns.current_term then
      with_node st node (fun ns ->
          { ns with
            current_term = term;
            role = Types.Follower;
            voted_for = None;
            votes = [];
            prevotes = [] })
    else if has "wraft4" && term < ns.current_term then begin
      hit "term/regression";
      let st = raise_flag st "TermMonotonic" in
      with_node st node (fun ns -> { ns with current_term = term })
    end
    else st

  let step_down_if_higher st node term =
    if term > st.nodes.(node).current_term then
      with_node st node (fun ns ->
          { ns with
            current_term = term;
            role = Types.Follower;
            voted_for = None;
            votes = [];
            prevotes = [] })
    else st

  (* wraft9: the candidate reads the term of its last entry incorrectly and
     advertises 0, so up-to-date voters refuse it forever. *)
  let advertised_last_term ns =
    if has "wraft9" then 0 else Log.last_term ns.log

  let advance_commit st leader =
    let ns = st.nodes.(leader) in
    let candidate = quorum_match ns.log ns.match_index ~self:leader in
    let candidate =
      if
        candidate > ns.commit_index
        && Log.term_at ns.log candidate <> Some ns.current_term
        && Log.term_at ns.log candidate <> None
      then ns.commit_index
      else candidate
    in
    with_node st leader (fun ns ->
        { ns with commit_index = max ns.commit_index candidate })

  let become_leader st node =
    hit "election/won";
    let n = Array.length st.nodes in
    with_node st node (fun ns ->
        { ns with
          role = Types.Leader;
          next_index = Array.make n (Log.last_index ns.log + 1);
          match_index = Array.make n 0;
          retry_pending = Array.make n false })

  let start_election st node =
    hit "election/start";
    let st =
      with_node st node (fun ns ->
          { ns with
            role = Types.Candidate;
            current_term = ns.current_term + 1;
            voted_for = Some node;
            votes = [ node ];
            prevotes = [] })
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
           last_log_term = advertised_last_term ns;
           prevote = false })

  let start_prevote st node =
    hit "election/prevote";
    let st = with_node st node (fun ns -> { ns with prevotes = [ node ] }) in
    let ns = st.nodes.(node) in
    if Types.is_quorum 1 ~nodes:(Array.length st.nodes) then
      start_election st node
    else
      broadcast st ~src:node
        (Msg.Request_vote
           { term = ns.current_term + 1;
             last_log_index = Log.last_index ns.log;
             last_log_term = advertised_last_term ns;
             prevote = true })

  let election_timeout st node =
    if P.prevote then start_prevote st node else start_election st node

  (* The leader ships entries from nextIndex, or a snapshot when the range
     has been compacted away — unless wraft2 sends a bogus AppendEntries. *)
  let append_entries_to st leader peer =
    let ns = st.nodes.(leader) in
    let next_idx = ns.next_index.(peer) in
    if P.compaction && next_idx <= Log.base_index ns.log && not (has "wraft2")
    then begin
      hit "replicate/snapshot";
      send st ~src:leader ~dst:peer
        (Msg.Snapshot
           { term = ns.current_term;
             last_index = Log.base_index ns.log;
             last_term = Log.base_term ns.log })
    end
    else begin
      let prev_index = next_idx - 1 in
      let prev_term = Option.value (Log.term_at ns.log prev_index) ~default:0 in
      let entries = Log.entries_from ns.log next_idx in
      let st =
        if
          has "wraft5" && entries = [] && ns.retry_pending.(peer)
          && ns.match_index.(peer) < Log.last_index ns.log
        then begin
          hit "replicate/empty-retry";
          raise_flag st "RetryNonEmpty"
        end
        else st
      in
      let st =
        with_node st leader (fun ns ->
            { ns with retry_pending = Arr.set ns.retry_pending peer false })
      in
      send st ~src:leader ~dst:peer
        (Msg.Append_entries
           { term = ns.current_term;
             prev_index;
             prev_term;
             entries;
             commit = ns.commit_index })
    end

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

  let compact st node =
    hit "compact";
    with_node st node (fun ns ->
        { ns with log = Log.compact_to ns.log ns.commit_index })

  (* --- vote handling -------------------------------------------------- *)

  let handle_prevote_request st ~dst ~src ~term ~last_log_index ~last_log_term
      =
    let ns = st.nodes.(dst) in
    let leader_refuses = ns.role = Types.Leader && not (has "daos1") in
    let grant =
      (not leader_refuses)
      && term > ns.current_term
      && up_to_date ns.log ~last_log_term ~last_log_index
    in
    let st =
      if grant && ns.role = Types.Leader then begin
        hit "prevote/leader-grants";
        raise_flag st "LeaderDoesNotVote"
      end
      else st
    in
    hit (if grant then "prevote/grant" else "prevote/deny");
    send st ~src:dst ~dst:src
      (Msg.Vote { term; granted = grant; prevote = true })

  let handle_vote_request st ~dst ~src ~term ~last_log_index ~last_log_term =
    let st = adopt_term st dst term in
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

  let handle_prevote_reply st ~dst ~src ~term ~granted =
    let ns = st.nodes.(dst) in
    if
      granted && ns.role <> Types.Leader && ns.prevotes <> []
      && term = ns.current_term + 1
      && not (List.mem src ns.prevotes)
    then begin
      let prevotes = List.sort Int.compare (src :: ns.prevotes) in
      let st = with_node st dst (fun ns -> { ns with prevotes }) in
      if Types.is_quorum (List.length prevotes) ~nodes:(Array.length st.nodes)
      then start_election st dst
      else st
    end
    else begin
      hit "prevote/stale-reply";
      st
    end

  let handle_vote_reply st ~dst ~src ~term ~granted =
    let st = step_down_if_higher st dst term in
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

  (* --- replication ---------------------------------------------------- *)

  (* Append entries at prev_index+1.. with conflict truncation; wraft1 skips
     the conflict handling when the conflict sits at the very first entry. *)
  let store_entries st dst ~prev_index entries =
    let rec loop st idx = function
      | [] -> st
      | (e : Types.entry) :: rest ->
        let ns = st.nodes.(dst) in
        let st =
          match Log.term_at ns.log idx with
          | Some t when t = e.term -> st
          | Some _ when idx = 1 && has "wraft1" ->
            hit "append/first-entry-conflict-skipped";
            st  (* keeps the conflicting first entry in place *)
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
    let st = step_down_if_higher st dst term in
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
               next_hint = prev_index + List.length entries + 1 })
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
    let st = step_down_if_higher st dst term in
    let ns = st.nodes.(dst) in
    if ns.role <> Types.Leader || term < ns.current_term then begin
      hit "reply/ignored";
      st
    end
    else if success then begin
      hit "reply/success";
      let new_match = max ns.match_index.(src) (next_hint - 1) in
      (* wraft7: nextIndex is assigned straight from the (possibly stale)
         reply without the matchIndex floor. *)
      let new_next =
        if has "wraft7" then next_hint else max next_hint (new_match + 1)
      in
      let st =
        with_node st dst (fun ns ->
            { ns with
              match_index = Arr.set ns.match_index src new_match;
              next_index = Arr.set ns.next_index src (max 1 new_next) })
      in
      advance_commit st dst
    end
    else begin
      hit "reply/reject";
      let new_next =
        if has "wraft5" then ns.next_index.(src)  (* ignores the hint *)
        else if has "wraft7" then next_hint
        else max next_hint (ns.match_index.(src) + 1)
      in
      with_node st dst (fun ns ->
          { ns with
            next_index = Arr.set ns.next_index src new_next;
            retry_pending = Arr.set ns.retry_pending src true })
    end

  let handle_snapshot st ~dst ~src ~term ~last_index ~last_term =
    let st = step_down_if_higher st dst term in
    let ns = st.nodes.(dst) in
    if term < ns.current_term then begin
      hit "snapshot/stale";
      send st ~src:dst ~dst:src
        (Msg.Snapshot_reply
           { term = ns.current_term;
             success = false;
             next_hint = Log.last_index ns.log + 1 })
    end
    else begin
      let st = with_node st dst (fun ns -> { ns with role = Types.Follower }) in
      let ns = st.nodes.(dst) in
      let st =
        if last_index > ns.commit_index then begin
          hit "snapshot/install";
          with_node st dst (fun ns ->
              { ns with
                log = Log.install_snapshot ~last_index ~last_term;
                commit_index = last_index })
        end
        else begin
          hit "snapshot/already-covered";
          st
        end
      in
      send st ~src:dst ~dst:src
        (Msg.Snapshot_reply
           { term = st.nodes.(dst).current_term;
             success = true;
             next_hint = last_index + 1 })
    end

  let handle_snapshot_reply st ~dst ~src ~term ~success ~next_hint =
    let st = step_down_if_higher st dst term in
    let ns = st.nodes.(dst) in
    if ns.role <> Types.Leader || term < ns.current_term || not success then st
    else
      with_node st dst (fun ns ->
          { ns with
            next_index = Arr.set ns.next_index src next_hint;
            match_index =
              Arr.set ns.match_index src
                (max ns.match_index.(src) (next_hint - 1)) })

  let handle_message st ~dst ~src (m : Msg.t) =
    match m with
    | Request_vote { term; last_log_index; last_log_term; prevote = true } ->
      handle_prevote_request st ~dst ~src ~term ~last_log_index ~last_log_term
    | Request_vote { term; last_log_index; last_log_term; prevote = false } ->
      handle_vote_request st ~dst ~src ~term ~last_log_index ~last_log_term
    | Vote { term; granted; prevote = true } ->
      handle_prevote_reply st ~dst ~src ~term ~granted
    | Vote { term; granted; prevote = false } ->
      handle_vote_reply st ~dst ~src ~term ~granted
    | Append_entries { term; prev_index; prev_term; entries; commit } ->
      handle_append_entries st ~dst ~src ~term ~prev_index ~prev_term ~entries
        ~commit
    | Append_reply { term; success; next_hint } ->
      handle_append_reply st ~dst ~src ~term ~success ~next_hint
    | Snapshot { term; last_index; last_term } ->
      handle_snapshot st ~dst ~src ~term ~last_index ~last_term
    | Snapshot_reply { term; success; next_hint } ->
      handle_snapshot_reply st ~dst ~src ~term ~success ~next_hint

  (* --- failures ------------------------------------------------------- *)

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

    (* elections, heartbeats, compaction ticks *)
    let timeouts =
      [ ("election", (fun ns -> not (is_leader ns)), election_timeout);
        ("heartbeat", is_leader, heartbeat);
        ( "snapshot",
          (fun ns -> P.compaction && ns.commit_index > Log.base_index ns.log),
          compact ) ]

    let accepts_client = is_leader
    let client_ops = [ ((fun v -> "put:" ^ string_of_int v), client_request) ]

    (* The C library persists its log, term and vote; volatile leader and
       election state is normalised at crash time. *)
    let crash ~nodes:n _ ns =
      { ns with
        alive = false;
        role = Types.Follower;
        votes = [];
        prevotes = [];
        commit_index = 0;
        next_index = Array.make n 1;
        match_index = Array.make n 0;
        retry_pending = Array.make n false }

    let restart ns = { ns with alive = true }

    let permute_node p ns =
      { ns with
        voted_for = Option.map (fun v -> p.(v)) ns.voted_for;
        votes = List.sort Int.compare (List.map (fun v -> p.(v)) ns.votes);
        prevotes =
          List.sort Int.compare (List.map (fun v -> p.(v)) ns.prevotes);
        next_index = Arr.permute p ns.next_index;
        match_index = Arr.permute p ns.match_index;
        retry_pending = Arr.permute p ns.retry_pending }

    let permute_msg = None
    let observe_node ns = View.observe (view_of ns)
    let observe_extra _ = []
    let pp_node ppf i ns = View.pp ppf i (view_of ns)
    let pp_extra _ _ = ()
  end)

  let init = init P.semantics fresh_node

  let invariants =
    Raft_spec.invariants view_of Invariants.standard
      [ "TermMonotonic"; "RetryNonEmpty"; "LeaderDoesNotVote" ]

  let permutable = true
  let node_key st i = View.node_key ~self:i (view_of st.nodes.(i))
end

let spec ~name ~semantics ~prevote ~compaction ?(bugs = Bug.Flags.empty) () :
    Sandtable.Spec.t =
  let module S = Make (struct
    let name = name
    let semantics = semantics
    let prevote = prevote
    let compaction = compaction
    let bugs = bugs
  end) in
  (module S)
