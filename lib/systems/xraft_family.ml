(* The Xraft codebase family (paper §4.2): Xraft is an educational Java Raft
   implementation with the PreVote extension; Xraft-KV is the distributed
   key-value store built on it (modelled without PreVote, as in the paper,
   and with Put/Get operations plus a linearizability history).

   Bug flags (Table 2):
     xraft1 — vote replies are accepted unconditionally: neither the reply's
              term nor its granted flag is checked, so stale and denied
              votes count toward the quorum
     xkv1   — the leader serves reads from its local applied state without
              confirming leadership, returning stale data
   (xraft2 is implementation-only; see {!Xraft_family_impl}.) *)

open Raft_kernel
module Scenario = Sandtable.Scenario
module Counters = Sandtable.Counters
module Arr = Sandtable.Arr
module Coverage = Sandtable.Coverage
module Linearize = Sandtable.Linearize

(* KV entries encode the operation in the value: [v > 0] is [Put(key,v)],
   [v = read_marker] is a logged read of the single modelled key. *)
let kv_key = 1
let read_marker = -1

type pending_put = { index : int; term : int; value : int; invoked : int }
type pending_read = { r_index : int; r_term : int; r_invoked : int }

type node_st = {
  alive : bool;
  role : Types.role;
  current_term : int;
  voted_for : int option;
  votes : int list;
  prevotes : int list;
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
  (* client-side KV history (auxiliary, node-independent) *)
  hclock : int;
  history : Linearize.entry list;  (* completed operations, oldest first *)
  pending_puts : pending_put list;
  pending_reads : pending_read list;
}

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

(* The applied KV value at a node: last Put at or below its commit index. *)
let applied_value (ns : node_st) =
  let rec scan i acc =
    if i > ns.commit_index then acc
    else
      scan (i + 1)
        (match Log.get ns.log i with
        | Some e when e.Types.value > 0 -> Some e.Types.value
        | Some _ | None -> acc)
  in
  scan (Log.base_index ns.log + 1) None

(* Linearizability is exponential in history size but histories repeat
   massively across states: memoize on the history value. The invariant
   runs on every exploring domain, so each domain keeps its own table, and
   a table that outgrows [lin_cache_limit] is emptied rather than grown.
   The working set is small: 60 s of the default 3-node scenario
   (1.36 M states) asks about 165 distinct (history, pending) keys and the
   Xraft-KV#1 hunt about 48, a 99.99% hit rate, so the limit only stops
   an unusual scenario from growing the table without end. *)
let lin_cache_limit = 16_384

let lin_cache :
    (Linearize.entry list * Linearize.op list, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let linearizable ~pending history =
  let cache = Domain.DLS.get lin_cache in
  let key = history, pending in
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
    let v = Linearize.check ~pending history in
    if Hashtbl.length cache >= lin_cache_limit then Hashtbl.reset cache;
    Hashtbl.add cache key v;
    v

module type PARAMS = sig
  val name : string
  val prevote : bool
  val kv : bool
  val bugs : Bug.Flags.t
end

module Make (P : PARAMS) : Sandtable.Spec.S with type state = state = struct
  type nonrec state = state

  let name = P.name
  let has flag = Bug.Flags.mem flag P.bugs
  let hit branch = Coverage.hit (P.name ^ "/" ^ branch)

  let init (scenario : Scenario.t) =
    let n = scenario.nodes in
    [ { nodes = Array.init n (fresh_node ~nodes:n);
        net = Net.create ~nodes:n Sandtable.Spec_net.Tcp;
        counters = Counters.zero;
        flags = [];
        hclock = 0;
        history = [];
        pending_puts = [];
        pending_reads = [] } ]

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
            votes = [];
            prevotes = [] })
    else st

  (* Complete client operations whose entries became committed on [node]. *)
  let complete_ops st node ~old_commit =
    if not P.kv then st
    else begin
      let ns = st.nodes.(node) in
      let committed_matches (index, term) =
        index > old_commit && index <= ns.commit_index
        && Log.term_at ns.log index = Some term
      in
      let completed_puts, pending_puts =
        List.partition
          (fun (p : pending_put) -> committed_matches (p.index, p.term))
          st.pending_puts
      in
      let completed_reads, pending_reads =
        List.partition
          (fun (r : pending_read) -> committed_matches (r.r_index, r.r_term))
          st.pending_reads
      in
      let st = { st with pending_puts; pending_reads } in
      let finish st mk =
        let hclock = st.hclock + 1 in
        { st with hclock; history = st.history @ [ mk hclock ] }
      in
      let st =
        List.fold_left
          (fun st (p : pending_put) ->
            hit "kv/put-committed";
            finish st (fun now ->
                { Linearize.op = Linearize.Put { key = kv_key; value = p.value };
                  invoked = p.invoked;
                  responded = now;
                  result = None }))
          st completed_puts
      in
      List.fold_left
        (fun st (r : pending_read) ->
          hit "kv/read-committed";
          (* the logged read observes the value applied just before it *)
          let value =
            let rec scan i acc =
              if i >= r.r_index then acc
              else
                scan (i + 1)
                  (match Log.get ns.log i with
                  | Some e when e.Types.value > 0 -> Some e.Types.value
                  | Some _ | None -> acc)
            in
            scan (Log.base_index ns.log + 1) None
          in
          finish st (fun now ->
              { Linearize.op = Linearize.Get { key = kv_key };
                invoked = r.r_invoked;
                responded = now;
                result = value }))
        st completed_reads
    end

  let advance_commit st leader =
    let ns = st.nodes.(leader) in
    let candidate = Raft_spec.quorum_match ns.log ns.match_index ~self:leader in
    let candidate =
      if
        candidate > ns.commit_index
        && Log.term_at ns.log candidate <> Some ns.current_term
        && Log.term_at ns.log candidate <> None
      then ns.commit_index
      else max ns.commit_index candidate
    in
    let old_commit = ns.commit_index in
    let st =
      with_node st leader (fun ns -> { ns with commit_index = candidate })
    in
    complete_ops st leader ~old_commit

  let become_leader st node =
    hit "election/won";
    let n = Array.length st.nodes in
    with_node st node (fun ns ->
        { ns with
          role = Types.Leader;
          next_index = Array.make n (Log.last_index ns.log + 1);
          match_index = Array.make n 0 })

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
           last_log_term = Log.last_term ns.log;
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
             last_log_term = Log.last_term ns.log;
             prevote = true })

  let election_timeout st node =
    if P.prevote then start_prevote st node else start_election st node

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

  let append_client_entry st node value =
    let st =
      with_node st node (fun ns ->
          { ns with
            log = Log.append ns.log (Types.entry ~term:ns.current_term ~value)
          })
    in
    st, Log.last_index st.nodes.(node).log

  let client_put st node value =
    hit "client/put";
    let st = { st with hclock = st.hclock + 1 } in
    let invoked = st.hclock in
    let st, index = append_client_entry st node value in
    let st =
      if P.kv then
        { st with
          pending_puts =
            { index; term = st.nodes.(node).current_term; value; invoked }
            :: st.pending_puts }
      else st
    in
    advance_commit st node

  let client_get st node =
    let st = { st with hclock = st.hclock + 1 } in
    let invoked = st.hclock in
    if has "xkv1" then begin
      (* the unconfirmed leader answers from its local applied state *)
      hit "kv/local-read";
      let value = applied_value st.nodes.(node) in
      let hclock = st.hclock + 1 in
      { st with
        hclock;
        history =
          st.history
          @ [ { Linearize.op = Linearize.Get { key = kv_key };
                invoked;
                responded = hclock;
                result = value } ] }
    end
    else begin
      (* the fixed read is logged and answered on commit *)
      hit "kv/logged-read";
      let st, index = append_client_entry st node read_marker in
      let st =
        { st with
          pending_reads =
            { r_index = index;
              r_term = st.nodes.(node).current_term;
              r_invoked = invoked }
            :: st.pending_reads }
      in
      advance_commit st node
    end

  (* --- votes ---------------------------------------------------------- *)

  let handle_prevote_request st ~dst ~src ~term ~last_log_index ~last_log_term
      =
    let ns = st.nodes.(dst) in
    let grant =
      ns.role <> Types.Leader
      && term > ns.current_term
      && Raft_spec.up_to_date ns.log ~last_log_term ~last_log_index
    in
    hit (if grant then "prevote/grant" else "prevote/deny");
    send st ~src:dst ~dst:src
      (Msg.Vote { term; granted = grant; prevote = true })

  let handle_vote_request st ~dst ~src ~term ~last_log_index ~last_log_term =
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    let grant =
      term = ns.current_term
      && (ns.voted_for = None || ns.voted_for = Some src)
      && Raft_spec.up_to_date ns.log ~last_log_term ~last_log_index
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
    let accepted = granted || has "xraft1" in
    if (not granted) && accepted then hit "prevote/denied-accepted";
    if
      accepted && ns.role <> Types.Leader && ns.prevotes <> []
      && term = ns.current_term + 1
      && not (List.mem src ns.prevotes)
    then begin
      let prevotes = List.sort Int.compare (src :: ns.prevotes) in
      let st = with_node st dst (fun ns -> { ns with prevotes }) in
      if Types.is_quorum (List.length prevotes) ~nodes:(Array.length st.nodes)
      then start_election st dst
      else st
    end
    else st

  let handle_vote_reply st ~dst ~src ~term ~granted =
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    (* xraft1: neither the reply's term nor its granted flag is checked, so
       stale and denied votes count toward the quorum. *)
    let term_ok = has "xraft1" || term = ns.current_term in
    let accepted = granted || has "xraft1" in
    if
      ns.role = Types.Candidate && term_ok && accepted
      && not (List.mem src ns.votes)
    then begin
      if term <> ns.current_term || not granted then hit "vote/stale-accepted";
      let votes = List.sort Int.compare (src :: ns.votes) in
      let st = with_node st dst (fun ns -> { ns with votes }) in
      if Types.is_quorum (List.length votes) ~nodes:(Array.length st.nodes)
      then become_leader st dst
      else st
    end
    else st

  (* --- replication ---------------------------------------------------- *)

  let store_entries st dst ~prev_index entries =
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
        let old_commit = st.nodes.(dst).commit_index in
        let st =
          with_node st dst (fun ns ->
              { ns with
                commit_index =
                  max ns.commit_index (min commit (Log.last_index ns.log)) })
        in
        let st = complete_ops st dst ~old_commit in
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
    let st = step_down st dst term in
    let ns = st.nodes.(dst) in
    if ns.role <> Types.Leader || term < ns.current_term then st
    else if success then begin
      hit "reply/success";
      let new_match = max ns.match_index.(src) (next_hint - 1) in
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
    | Snapshot _ | Snapshot_reply _ -> assert false

  (* The state adds a client history to the standard record, so it reaches
     the skeleton through accessors of its own. *)
  include Sandtable.Cluster_spec.Make (struct
    module Net = Net

    type node = node_st
    type nonrec state = state

    let nodes st = st.nodes
    let net st = st.net
    let counters st = st.counters
    let flags st = st.flags
    let with_nodes st nodes = { st with nodes }
    let with_net st net = { st with net }
    let with_counters st counters = { st with counters }
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

    let client_ops =
      let get st node _ = client_get st node in
      ((fun v -> "put:" ^ string_of_int v), client_put)
      :: (if P.kv then [ ((fun _ -> "get"), get) ] else [])

    let crash ~nodes:n _ ns =
      { ns with
        alive = false;
        role = Types.Follower;
        votes = [];
        prevotes = [];
        commit_index = 0;
        next_index = Array.make n 1;
        match_index = Array.make n 0 }

    let restart ns = { ns with alive = true }

    let permute_node p ns =
      { ns with
        voted_for = Option.map (fun v -> p.(v)) ns.voted_for;
        votes = List.sort Int.compare (List.map (fun v -> p.(v)) ns.votes);
        prevotes =
          List.sort Int.compare (List.map (fun v -> p.(v)) ns.prevotes);
        next_index = Arr.permute p ns.next_index;
        match_index = Arr.permute p ns.match_index }

    let permute_msg = None
    let observe_node ns = View.observe (view_of ns)

    let observe_extra st =
      if P.kv then
        [ ( "history",
            Tla.Value.seq (List.map Linearize.observe_entry st.history) ) ]
      else []

    let pp_node ppf i ns = View.pp ppf i (view_of ns)

    let pp_extra ppf st =
      if P.kv then
        Fmt.pf ppf "history=[%a]@."
          Fmt.(list ~sep:(any "; ") Linearize.pp_entry)
          st.history
  end)

  let views st = Array.map view_of st.nodes

  let invariants =
    List.map
      (fun (name, check) -> name, fun (_ : Scenario.t) st -> check (views st))
      Invariants.standard
    @
    if P.kv then
      [ ( "Linearizability",
          fun (_ : Scenario.t) st ->
            let pending =
              List.map
                (fun (p : pending_put) ->
                  Linearize.Put { key = kv_key; value = p.value })
                st.pending_puts
            in
            linearizable ~pending st.history ) ]
    else []

  let permutable = true
  let node_key st i = View.node_key ~self:i (view_of st.nodes.(i))
end

let spec ~name ~prevote ~kv ?(bugs = Bug.Flags.empty) () : Sandtable.Spec.t =
  let module S = Make (struct
    let name = name
    let prevote = prevote
    let kv = kv
    let bugs = bugs
  end) in
  (module S)
