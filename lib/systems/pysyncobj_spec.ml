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

module Make (P : sig
  val bugs : Bug.Flags.t
end) : Sandtable.Spec.S with type state = state = struct
  type nonrec state = state

  let name = "pysyncobj"
  let has flag = Bug.Flags.mem flag P.bugs

  open Raft_spec

  (* Step down to follower on observing a higher term. *)
  let maybe_step_down ns term =
    if term > ns.current_term then
      { ns with
        current_term = term;
        role = Types.Follower;
        voted_for = None;
        votes = [] }
    else ns

  (* Recompute the leader's commit index after replication progress,
     honouring or skipping the safety checks depending on the bug flags. *)
  let advance_commit st leader =
    let ns = st.nodes.(leader) in
    let candidate = quorum_match ns.log ns.match_index ~self:leader in
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
    let next_idx = ns.next_index.(peer) in
    let prev_index = next_idx - 1 in
    let prev_term = Option.value (Log.term_at ns.log prev_index) ~default:0 in
    let entries =
      let rec take n l =
        if n = 0 then []
        else match l with [] -> [] | x :: r -> x :: take (n - 1) r
      in
      take batch_size (Log.entries_from ns.log next_idx)
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
        && up_to_date ns.log ~last_log_term ~last_log_index
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

    (* Volatile state is normalised at crash time so that equivalent
       post-crash states share a fingerprint. PySyncObj's default deployment
       keeps no journal: the log itself is volatile; only the raft metadata
       (term, vote) survives. *)
    let crash ~nodes:n _ ns =
      { ns with
        alive = false;
        role = Types.Follower;
        votes = [];
        log = Log.empty;
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

  let init = init Sandtable.Spec_net.Tcp fresh_node

  let invariants =
    (* CommitQuorumDurability is omitted: the journal-less (in-memory)
       PySyncObj deployment modelled here loses its log on crash, so
       committed entries are genuinely not crash-durable. *)
    Raft_spec.invariants view_of
      (List.filter
         (fun (name, _) -> name <> "CommitQuorumDurability")
         Invariants.standard)
      [ "CommitIndexMonotonic"; "MatchIndexMonotonic"; "NoOlderTermCommit" ]

  let permutable = true
  let node_key st i = View.node_key ~self:i (view_of st.nodes.(i))
end

let spec ?(bugs = Bug.Flags.empty) () : Sandtable.Spec.t =
  (module Make (struct
    let bugs = bugs
  end))
