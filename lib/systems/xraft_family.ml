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
module Trace = Sandtable.Trace
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

let fresh_node n =
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
    [ { nodes = Array.init n (fun _ -> fresh_node n);
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

  let up_to_date ns ~last_log_term ~last_log_index =
    last_log_term > Log.last_term ns.log
    || (last_log_term = Log.last_term ns.log
       && last_log_index >= Log.last_index ns.log)

  let quorum_match st leader =
    let n = Array.length st.nodes in
    let replicated =
      List.init n (fun j ->
          if j = leader then Log.last_index st.nodes.(leader).log
          else st.nodes.(leader).match_index.(j))
    in
    List.nth
      (List.sort (fun a b -> Int.compare b a) replicated)
      (Types.quorum n - 1)

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
    let candidate = quorum_match st leader in
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
      && up_to_date ns ~last_log_term ~last_log_index
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

  let crash st node =
    hit "crash";
    let n = Array.length st.nodes in
    let st =
      with_node st node (fun ns ->
          { ns with
            alive = false;
            role = Types.Follower;
            votes = [];
            prevotes = [];
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

  let next (scenario : Scenario.t) st =
    let budget key ~default = Scenario.budget_get scenario.budget key ~default in
    let transitions = ref [] in
    let add event st' = transitions := (event, st') :: !transitions in
    List.iter
      (fun (src, dst, index, _msg) ->
        if st.nodes.(dst).alive then
          match Net.deliver st.net ~src ~dst ~index with
          | None -> ()
          | Some (m, net) ->
            add (Trace.Deliver { src; dst; index })
              (handle_message { st with net } ~dst ~src m))
      (Net.deliverable st.net);
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
            add event (client_put { st with counters } node value);
            if P.kv then begin
              let event = Trace.Client { node; op = "get" } in
              let counters = Counters.bump st.counters event in
              add event (client_get { st with counters } node)
            end
          end)
        st.nodes;
    List.rev !transitions @ Sandtable.Envgen.failure_events env_ops scenario st

  let constraint_ok (scenario : Scenario.t) st =
    Counters.within st.counters scenario.budget
    && Net.max_queue_len st.net
       <= Scenario.budget_get scenario.budget "buffer" ~default:4

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

  (* Fields in canonical (name) order; "history" only for the KV variant. *)
  let observe st =
    let tail =
      [ "net", Net.observe st.net; "nodes", View.observe_cluster (views st) ]
    in
    let tail =
      if P.kv then
        ( "history",
          Tla.Value.seq (List.map Linearize.observe_entry st.history) )
        :: tail
      else tail
    in
    Tla.Value.record
      (("counters", Counters.observe st.counters)
      :: ("flags", Tla.Value.set (List.map Tla.Value.str st.flags))
      :: tail)

  let permutable = true
  let node_key st i = View.node_key ~self:i (view_of st.nodes.(i))

  let permute p st =
    let permute_node ns =
      { ns with
        voted_for = Option.map (fun v -> p.(v)) ns.voted_for;
        votes = List.sort Int.compare (List.map (fun v -> p.(v)) ns.votes);
        prevotes = List.sort Int.compare (List.map (fun v -> p.(v)) ns.prevotes);
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
    if P.kv then
      Fmt.pf ppf "history=[%a]@."
        Fmt.(list ~sep:(any "; ") Linearize.pp_entry)
        st.history;
    Fmt.pf ppf "in-flight=%d flags=[%a]@." (Net.total_in_flight st.net)
      Fmt.(list ~sep:(any ",") string)
      st.flags
end

let spec ~name ~prevote ~kv ?(bugs = Bug.Flags.empty) () : Sandtable.Spec.t =
  let module S = Make (struct
    let name = name
    let prevote = prevote
    let kv = kv
    let bugs = bugs
  end) in
  (module S)
