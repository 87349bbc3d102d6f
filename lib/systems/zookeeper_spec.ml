(* Specification of ZooKeeper's Zab protocol (paper §4.2, Fig. 2/3),
   structured after the system specification: fast leader election with
   rounds and vote comparison, discovery (FOLLOWERINFO → epoch
   establishment), synchronization (snapshot-style SYNC + ack), and
   broadcast (PROPOSAL / ACK / COMMIT). Transactions carry zxids
   (epoch, counter); the counter is the global history index.

   Bug flag (Table 2):
     zk1 — ZOOKEEPER-1419: the vote comparison looks only at the zxid
           counter (and server id), ignoring the epoch, so votes are not
           totally ordered across epochs; a stale-epoch peer with a longer
           uncommitted history wins the election and its snapshot sync
           erases committed transactions. *)

module Scenario = Sandtable.Scenario
module Trace = Sandtable.Trace
module Coverage = Sandtable.Coverage

type zrole = Looking | Following | Leading

let zrole_to_string = function
  | Looking -> "looking"
  | Following -> "following"
  | Leading -> "leading"

type txn = { zepoch : int; value : int }
(* the txn at history position i has zxid (zepoch, i) *)

type vote = { v_leader : int; v_epoch : int; v_zxid : int * int }

type zmsg =
  | Notification of { vote : vote; round : int; looking : bool }
  | Follower_info of { epoch : int; zxid : int * int }
  | Leader_info of { epoch : int }
  | Epoch_ack of { epoch : int }
  | Sync of { epoch : int; history : txn list; commit : int }
  | Sync_ack of { epoch : int }
  | Proposal of { epoch : int; index : int; value : int }
  | Prop_ack of { index : int }
  | Commit of { index : int }

(* Successor labels are built once per [Deliver] successor, so they go
   through a per-call buffer rather than Format. *)
let describe_zmsg m =
  let b = Buffer.create 32 in
  let s = Buffer.add_string b in
  let i n = Buffer.add_string b (string_of_int n) in
  (match m with
  | Notification { vote; round; looking } ->
    s "Not(l"; i (vote.v_leader + 1); s ",e"; i vote.v_epoch; s ",z";
    i (fst vote.v_zxid); s ":"; i (snd vote.v_zxid); s ",r"; i round; s ",";
    Buffer.add_char b (if looking then 'L' else 'F'); s ")"
  | Follower_info { epoch; zxid } ->
    s "FInfo(e"; i epoch; s ",z"; i (fst zxid); s ":"; i (snd zxid); s ")"
  | Leader_info { epoch } -> s "LInfo(e"; i epoch; s ")"
  | Epoch_ack { epoch } -> s "EpochAck(e"; i epoch; s ")"
  | Sync { epoch; history; commit } ->
    s "Sync(e"; i epoch; s ",+"; i (List.length history); s ",c"; i commit;
    s ")"
  | Sync_ack { epoch } -> s "SyncAck(e"; i epoch; s ")"
  | Proposal { epoch; index; value } ->
    s "Prop(e"; i epoch; s ",i"; i index; s ",v"; i value; s ")"
  | Prop_ack { index } -> s "PropAck(i"; i index; s ")"
  | Commit { index } -> s "Commit(i"; i index; s ")");
  Buffer.contents b

let observe_txn t =
  Tla.Value.record
    [ "epoch", Tla.Value.int t.zepoch; "value", Tla.Value.int t.value ]

let observe_vote v =
  let open Tla.Value in
  record
    [ "epoch", int v.v_epoch;
      "leader", int v.v_leader;
      "zxid_counter", int (snd v.v_zxid);
      "zxid_epoch", int (fst v.v_zxid) ]

(* Fields in canonical (name) order: [Tla.Value.record] keeps them as is. *)
let observe_zmsg m =
  let open Tla.Value in
  match m with
  | Notification { vote; round; looking } ->
    record
      [ "epoch", int vote.v_epoch;
        "leader", int vote.v_leader;
        "looking", bool looking;
        "round", int round;
        "type", str "notification";
        "zxid_counter", int (snd vote.v_zxid);
        "zxid_epoch", int (fst vote.v_zxid) ]
  | Follower_info { epoch; zxid } ->
    record
      [ "epoch", int epoch;
        "type", str "follower_info";
        "zxid_counter", int (snd zxid);
        "zxid_epoch", int (fst zxid) ]
  | Sync { epoch; history; commit } ->
    record
      [ "commit", int commit;
        "epoch", int epoch;
        "history", seq (List.map observe_txn history);
        "type", str "sync" ]
  | Leader_info { epoch } ->
    record [ "epoch", int epoch; "type", str "leader_info" ]
  | Epoch_ack { epoch } ->
    record [ "epoch", int epoch; "type", str "epoch_ack" ]
  | Sync_ack { epoch } -> record [ "epoch", int epoch; "type", str "sync_ack" ]
  | Proposal { epoch; index; value } ->
    record
      [ "epoch", int epoch;
        "index", int index;
        "type", str "proposal";
        "value", int value ]
  | Prop_ack { index } -> record [ "index", int index; "type", str "prop_ack" ]
  | Commit { index } -> record [ "index", int index; "type", str "commit" ]

module Znet = Sandtable.Spec_net.Make (struct
  type t = zmsg

  let describe = describe_zmsg
  let observe = observe_zmsg
end)

type node_st = {
  alive : bool;
  role : zrole;
  round : int;  (* FLE logical clock; volatile *)
  vote : vote;  (* current vote; volatile *)
  recv_votes : (int * vote * int) list;  (* (src, vote, round), volatile *)
  epoch : int;  (* currentEpoch; persistent *)
  accepted_epoch : int;  (* acceptedEpoch promise; persistent *)
  history : txn list;  (* txn log; persistent *)
  commit_index : int;  (* lastCommitted; persistent (snapshots) *)
  leader : int option;  (* who this node follows; volatile *)
  established : bool;  (* leader only: epoch established by quorum *)
  proposed_epoch : int;  (* leader only: epoch being established *)
  finfo_from : (int * int) list;  (* leader only: FOLLOWERINFO (src, epoch) *)
  epoch_acks : int list;  (* leader only: ACKEPOCH senders *)
  synced : int list;  (* leader only: followers that acked SYNC *)
  acks : (int * int list) list;  (* leader only: proposal index -> ackers *)
}

module Cluster = Sandtable.Cluster_spec.Record (Znet)

type state = node_st Cluster.t

let zxid_of ns =
  match List.rev ns.history with
  | [] -> 0, 0
  | last :: _ -> last.zepoch, List.length ns.history

let self_vote id ns = { v_leader = id; v_epoch = ns.epoch; v_zxid = zxid_of ns }

let fresh_node ~nodes:_ id =
  let ns =
    { alive = true;
      role = Looking;
      round = 0;
      vote = { v_leader = id; v_epoch = 0; v_zxid = 0, 0 };
      recv_votes = [];
      epoch = 0;
      accepted_epoch = 0;
      history = [];
      commit_index = 0;
      leader = None;
      established = false;
      proposed_epoch = 0;
      finfo_from = [];
      epoch_acks = [];
      synced = [];
      acks = [] }
  in
  { ns with vote = self_vote id ns }

module Make (P : sig
  val bugs : Bug.Flags.t
end) : Sandtable.Spec.S with type state = state = struct
  type nonrec state = state

  let name = "zookeeper"
  let has flag = Bug.Flags.mem flag P.bugs
  let hit branch = Coverage.hit ("zookeeper/" ^ branch)

  open Cluster

  (* FLE total order on votes. zk1 compares only the zxid counter and the
     server id, dropping the epoch components. *)
  let vote_gt a b =
    if has "zk1" then
      compare (snd a.v_zxid, a.v_leader) (snd b.v_zxid, b.v_leader) > 0
    else
      compare (a.v_epoch, a.v_zxid, a.v_leader) (b.v_epoch, b.v_zxid, b.v_leader)
      > 0

  let notification st ~src =
    let ns = st.nodes.(src) in
    Notification { vote = ns.vote; round = ns.round; looking = ns.role = Looking }

  (* Count round-r votes (self included) agreeing on the current vote. *)
  let vote_quorum st node =
    let ns = st.nodes.(node) in
    let supporters =
      List.filter
        (fun (_, v, round) ->
          round = ns.round && v.v_leader = ns.vote.v_leader)
        ns.recv_votes
    in
    Raft_kernel.Types.is_quorum (List.length supporters + 1) ~nodes:(Array.length st.nodes)

  let send_follower_info st follower leader =
    let ns = st.nodes.(follower) in
    send st ~src:follower ~dst:leader
      (Follower_info { epoch = ns.epoch; zxid = zxid_of ns })

  (* A quorum of same-round votes settles the election: the chosen leader
     starts establishing its epoch, everyone else starts following. *)
  let try_elect st node =
    let ns = st.nodes.(node) in
    if not (vote_quorum st node) then st
    else if ns.vote.v_leader = node then begin
      hit "fle/elected-self";
      with_node st node (fun ns ->
          { ns with
            role = Leading;
            leader = Some node;
            established = false;
            proposed_epoch = 0;
            finfo_from = [ node, ns.accepted_epoch ];
            epoch_acks = [];
            synced = [];
            acks = [] })
    end
    else begin
      hit "fle/following";
      let leader = ns.vote.v_leader in
      let st =
        with_node st node (fun ns ->
            { ns with role = Following; leader = Some leader })
      in
      send_follower_info st node leader
    end

  let start_election st node =
    hit "fle/start";
    let st =
      with_node st node (fun ns ->
          { ns with
            role = Looking;
            round = ns.round + 1;
            vote = self_vote node ns;
            recv_votes = [];
            leader = None;
            established = false;
            proposed_epoch = 0;
            finfo_from = [];
            epoch_acks = [];
            synced = [];
            acks = [] })
    in
    let st = broadcast st ~src:node (notification st ~src:node) in
    try_elect st node

  (* --- FLE message handling (Fig. 3) --------------------------------- *)

  let record_vote ns ~src v round =
    let others = List.filter (fun (s, _, _) -> s <> src) ns.recv_votes in
    { ns with recv_votes = List.sort compare ((src, v, round) :: others) }

  let handle_notification st ~dst ~src ~(vote : vote) ~round ~looking =
    let ns = st.nodes.(dst) in
    if ns.role = Looking then begin
      if (not looking) && round >= ns.round && vote.v_leader = src then begin
        (* the leader itself answered: rejoin directly (the outofelection
           fast path of FLE, restricted to a first-hand witness) *)
        hit "fle/rejoin";
        let leader = vote.v_leader in
        if leader = dst then st
        else begin
          let st =
            with_node st dst (fun ns ->
                { ns with role = Following; leader = Some leader; round })
          in
          send_follower_info st dst leader
        end
      end
      else if round > ns.round then begin
        hit "fle/higher-round";
        let st =
          with_node st dst (fun ns ->
              let ns = { ns with round; recv_votes = [] } in
              let better =
                if vote_gt vote (self_vote dst ns) then vote
                else self_vote dst ns
              in
              { ns with vote = better })
        in
        let st = with_node st dst (fun ns -> record_vote ns ~src vote round) in
        let st = broadcast st ~src:dst (notification st ~src:dst) in
        try_elect st dst
      end
      else if round = ns.round then begin
        let st =
          if vote_gt vote ns.vote then begin
            hit "fle/adopt";
            let st = with_node st dst (fun ns -> { ns with vote }) in
            broadcast st ~src:dst (notification st ~src:dst)
          end
          else st
        in
        let st = with_node st dst (fun ns -> record_vote ns ~src vote round) in
        try_elect st dst
      end
      else begin
        hit "fle/stale-round";
        if looking then send st ~src:dst ~dst:src (notification st ~src:dst)
        else st
      end
    end
    else if looking then begin
      (* a settled node tells the looking sender about the current leader *)
      hit "fle/reply-settled";
      send st ~src:dst ~dst:src (notification st ~src:dst)
    end
    else st

  (* --- discovery and synchronization --------------------------------- *)

  let sync_follower st leader follower =
    let ns = st.nodes.(leader) in
    send st ~src:leader ~dst:follower
      (Sync { epoch = ns.epoch; history = ns.history; commit = ns.commit_index })

  (* Discovery (Zab phase 1): the prospective leader collects FOLLOWERINFO
     from a quorum, proposes an epoch larger than every accepted epoch it
     saw, and is established once a quorum promises via ACKEPOCH. Stale
     FOLLOWERINFO from peers that moved on cannot establish a leader: the
     promise is checked against the follower's current leader. *)
  let handle_follower_info st ~dst ~src ~epoch ~zxid =
    ignore zxid;
    let ns = st.nodes.(dst) in
    if ns.role <> Leading then st
    else begin
      let st =
        with_node st dst (fun ns ->
            { ns with
              finfo_from =
                if List.mem_assoc src ns.finfo_from then ns.finfo_from
                else List.sort compare ((src, epoch) :: ns.finfo_from) })
      in
      let ns = st.nodes.(dst) in
      if ns.established then begin
        hit "discovery/late-joiner";
        let st =
          send st ~src:dst ~dst:src (Leader_info { epoch = ns.epoch })
        in
        sync_follower st dst src
      end
      else if
        ns.proposed_epoch = 0
        && Raft_kernel.Types.is_quorum (List.length ns.finfo_from)
             ~nodes:(Array.length st.nodes)
      then begin
        hit "discovery/propose-epoch";
        let max_accepted =
          List.fold_left (fun m (_, e) -> max m e) ns.accepted_epoch
            ns.finfo_from
        in
        let proposed = max_accepted + 1 in
        let st =
          with_node st dst (fun ns ->
              { ns with
                proposed_epoch = proposed;
                accepted_epoch = proposed;
                epoch_acks = [ dst ] })
        in
        List.fold_left
          (fun st (f, _) ->
            if f = dst then st
            else send st ~src:dst ~dst:f (Leader_info { epoch = proposed }))
          st st.nodes.(dst).finfo_from
      end
      else if ns.proposed_epoch <> 0 then begin
        (* establishment in flight: bring the newcomer into it *)
        hit "discovery/late-promise";
        send st ~src:dst ~dst:src (Leader_info { epoch = ns.proposed_epoch })
      end
      else st
    end

  let handle_leader_info st ~dst ~src ~epoch =
    let ns = st.nodes.(dst) in
    if
      ns.role = Following && ns.leader = Some src
      && epoch >= ns.accepted_epoch
    then begin
      hit "discovery/promise";
      let st =
        with_node st dst (fun ns -> { ns with accepted_epoch = epoch })
      in
      send st ~src:dst ~dst:src (Epoch_ack { epoch })
    end
    else begin
      hit "discovery/promise-refused";
      st
    end

  let handle_epoch_ack st ~dst ~src ~epoch =
    let ns = st.nodes.(dst) in
    if
      ns.role <> Leading || ns.established || epoch <> ns.proposed_epoch
      || List.mem src ns.epoch_acks
    then st
    else begin
      let acks = List.sort Int.compare (src :: ns.epoch_acks) in
      let st = with_node st dst (fun ns -> { ns with epoch_acks = acks }) in
      if
        Raft_kernel.Types.is_quorum (List.length acks)
          ~nodes:(Array.length st.nodes)
      then begin
        hit "discovery/epoch-established";
        let st =
          with_node st dst (fun ns ->
              { ns with epoch = ns.proposed_epoch; established = true;
                synced = [ dst ] })
        in
        List.fold_left
          (fun st f -> if f = dst then st else sync_follower st dst f)
          st st.nodes.(dst).epoch_acks
      end
      else st
    end

  (* SYNC replaces the follower's history (snapshot-style). Losing a
     committed transaction in the process means the elected leader did not
     have it: the consequence of electing by a non-total vote order. *)
  let handle_sync st ~dst ~src ~epoch ~history ~commit =
    let ns = st.nodes.(dst) in
    if ns.leader <> Some src || epoch < ns.accepted_epoch then begin
      hit "sync/stale";
      st
    end
    else begin
      hit "sync/install";
      let lost_committed =
        let rec prefix_differs i old_h new_h =
          match old_h, new_h with
          | [], _ -> false
          | _ :: _, [] -> i <= ns.commit_index
          | o :: old', n :: new' ->
            if i > ns.commit_index then false
            else (o.zepoch, o.value) <> (n.zepoch, n.value)
                 || prefix_differs (i + 1) old' new'
        in
        prefix_differs 1 ns.history history
      in
      let st =
        if lost_committed then begin
          hit "sync/committed-lost";
          raise_flag st "CommittedNotLost"
        end
        else st
      in
      let st =
        with_node st dst (fun ns ->
            { ns with epoch; accepted_epoch = max ns.accepted_epoch epoch;
              history; commit_index = commit })
      in
      send st ~src:dst ~dst:src (Sync_ack { epoch })
    end

  let handle_sync_ack st ~dst ~src ~epoch =
    let ns = st.nodes.(dst) in
    if ns.role <> Leading || epoch <> ns.epoch then st
    else begin
      hit "sync/acked";
      with_node st dst (fun ns ->
          { ns with
            synced =
              (if List.mem src ns.synced then ns.synced
               else List.sort Int.compare (src :: ns.synced)) })
    end

  (* --- broadcast ------------------------------------------------------ *)

  let client_request st node value =
    hit "broadcast/propose";
    let ns = st.nodes.(node) in
    let txn = { zepoch = ns.epoch; value } in
    let index = List.length ns.history + 1 in
    let st =
      with_node st node (fun ns ->
          { ns with
            history = ns.history @ [ txn ];
            acks = (index, [ node ]) :: ns.acks })
    in
    let ns = st.nodes.(node) in
    List.fold_left
      (fun st f ->
        if f = node then st
        else send st ~src:node ~dst:f (Proposal { epoch = ns.epoch; index; value }))
      st ns.synced

  let handle_proposal st ~dst ~src ~epoch ~index ~value =
    let ns = st.nodes.(dst) in
    if ns.leader <> Some src || epoch <> ns.epoch then begin
      hit "broadcast/stale-proposal";
      st
    end
    else if index <> List.length ns.history + 1 then begin
      (* strict FIFO order and SYNC-before-PROPOSE make gaps impossible *)
      hit "broadcast/out-of-order-proposal";
      st
    end
    else begin
      hit "broadcast/accept";
      let st =
        with_node st dst (fun ns ->
            { ns with history = ns.history @ [ { zepoch = epoch; value } ] })
      in
      send st ~src:dst ~dst:src (Prop_ack { index })
    end

  let handle_prop_ack st ~dst ~src ~index =
    let ns = st.nodes.(dst) in
    if ns.role <> Leading then st
    else begin
      let ackers =
        match List.assoc_opt index ns.acks with
        | Some l -> if List.mem src l then l else List.sort Int.compare (src :: l)
        | None -> [ src ]
      in
      let st =
        with_node st dst (fun ns ->
            { ns with acks = (index, ackers) :: List.remove_assoc index ns.acks })
      in
      if
        Raft_kernel.Types.is_quorum (List.length ackers) ~nodes:(Array.length st.nodes)
        && index > st.nodes.(dst).commit_index
      then begin
        hit "broadcast/commit";
        let st =
          with_node st dst (fun ns -> { ns with commit_index = index })
        in
        let ns = st.nodes.(dst) in
        List.fold_left
          (fun st f ->
            if f = dst then st
            else send st ~src:dst ~dst:f (Commit { index }))
          st ns.synced
      end
      else st
    end

  let handle_commit st ~dst ~src ~index =
    let ns = st.nodes.(dst) in
    if ns.leader <> Some src then st
    else begin
      hit "broadcast/committed";
      with_node st dst (fun ns ->
          { ns with
            commit_index =
              max ns.commit_index (min index (List.length ns.history)) })
    end

  let handle_message st ~dst ~src (m : zmsg) =
    match m with
    | Notification { vote; round; looking } ->
      handle_notification st ~dst ~src ~vote ~round ~looking
    | Follower_info { epoch; zxid } ->
      handle_follower_info st ~dst ~src ~epoch ~zxid
    | Leader_info { epoch } -> handle_leader_info st ~dst ~src ~epoch
    | Epoch_ack { epoch } -> handle_epoch_ack st ~dst ~src ~epoch
    | Sync { epoch; history; commit } ->
      handle_sync st ~dst ~src ~epoch ~history ~commit
    | Sync_ack { epoch } -> handle_sync_ack st ~dst ~src ~epoch
    | Proposal { epoch; index; value } ->
      handle_proposal st ~dst ~src ~epoch ~index ~value
    | Prop_ack { index } -> handle_prop_ack st ~dst ~src ~index
    | Commit { index } -> handle_commit st ~dst ~src ~index

  include Sandtable.Cluster_spec.Make (struct
    include State

    type node = node_st
    type nonrec state = state

    let name = name
    let default_requests = 2
    let default_buffer = 5
    let alive ns = ns.alive
    let is_leader ns = ns.role = Leading
    let handle_message = handle_message
    let timeouts = [ ("election", (fun _ -> true), start_election) ]
    let accepts_client ns = ns.role = Leading && ns.established
    let client_ops =
      [ ((fun v -> "create:" ^ string_of_int v), client_request) ]

    let crash ~nodes:_ id ns =
      let ns =
        { ns with
          alive = false;
          role = Looking;
          round = 0;
          recv_votes = [];
          leader = None;
          established = false;
          proposed_epoch = 0;
          finfo_from = [];
          epoch_acks = [];
          synced = [];
          acks = [] }
      in
      { ns with vote = self_vote id ns }

    let restart ns = { ns with alive = true }

    (* A faithful renaming, in-flight notifications included, though the
       spec is not [permutable] (see below). *)
    let permute_vote p (v : vote) = { v with v_leader = p.(v.v_leader) }

    let permute_node p ns =
      { ns with
        vote = permute_vote p ns.vote;
        recv_votes =
          List.map (fun (s, v, r) -> p.(s), permute_vote p v, r) ns.recv_votes
          |> List.sort compare;
        leader = Option.map (fun l -> p.(l)) ns.leader;
        finfo_from =
          List.sort compare (List.map (fun (f, e) -> p.(f), e) ns.finfo_from);
        epoch_acks =
          List.sort Int.compare (List.map (fun f -> p.(f)) ns.epoch_acks);
        synced = List.sort Int.compare (List.map (fun f -> p.(f)) ns.synced);
        acks =
          List.map
            (fun (i, l) ->
              i, List.sort Int.compare (List.map (fun f -> p.(f)) l))
            ns.acks
          |> List.sort compare }

    let permute_msg =
      Some
        (fun p -> function
          | Notification n ->
            Notification { n with vote = permute_vote p n.vote }
          | m -> m)

    (* Fields in canonical (name) order, as in [Zookeeper_impl.observe]. *)
    let observe_node ns =
      let open Tla.Value in
      if not ns.alive then record [ "status", str "down" ]
      else
        record
          [ "accepted_epoch", int ns.accepted_epoch;
            "commit", int ns.commit_index;
            "epoch", int ns.epoch;
            "established", bool ns.established;
            "history", seq (List.map observe_txn ns.history);
            ( "leader",
              match ns.leader with None -> str "none" | Some l -> int l );
            "role", str (zrole_to_string ns.role);
            "round", int ns.round;
            "status", str "up";
            "vote", observe_vote ns.vote ]

    let observe_extra _ = []

    let pp_node ppf i ns =
      Fmt.pf ppf
        "%s: %s role=%s round=%d vote=(n%d,e%d,z%d:%d) epoch=%d commit=%d \
         history=[%a]@."
        (Trace.node_name i)
        (if ns.alive then "up" else "down")
        (zrole_to_string ns.role) ns.round (ns.vote.v_leader + 1)
        ns.vote.v_epoch (fst ns.vote.v_zxid) (snd ns.vote.v_zxid) ns.epoch
        ns.commit_index
        Fmt.(
          list ~sep:(any "; ") (fun ppf t ->
              Fmt.pf ppf "%d:%d" t.zepoch t.value))
        ns.history

    let pp_extra _ _ = ()
  end)

  let init = init Sandtable.Spec_net.Tcp fresh_node

  (* At most one established leader per epoch (Fig. 2's LeadershipInv). *)
  let leadership_inv (_ : Scenario.t) st =
    let ok = ref true in
    let n = Array.length st.nodes in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let na = st.nodes.(a) and nb = st.nodes.(b) in
        if
          na.alive && nb.alive && na.role = Leading && nb.role = Leading
          && na.established && nb.established && na.epoch = nb.epoch
        then ok := false
      done
    done;
    !ok

  (* Any two nodes agree on the committed prefix of the history. *)
  let committed_prefix_inv (_ : Scenario.t) st =
    let ok = ref true in
    let n = Array.length st.nodes in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let na = st.nodes.(a) and nb = st.nodes.(b) in
        if na.alive && nb.alive then begin
          let hi = min na.commit_index nb.commit_index in
          let rec cmp i ha hb =
            i > hi
            ||
            match ha, hb with
            | xa :: ha', xb :: hb' ->
              (xa.zepoch, xa.value) = (xb.zepoch, xb.value) && cmp (i + 1) ha' hb'
            | _ -> false
          in
          if not (cmp 1 na.history nb.history) then ok := false
        end
      done
    done;
    !ok

  let invariants =
    [ "LeadershipInv", leadership_inv;
      "CommittedPrefixConsistent", committed_prefix_inv;
      ( "CommittedNotLost",
        fun (_ : Scenario.t) st ->
          Raft_kernel.Invariants.no_flag "CommittedNotLost" st.flags ) ]

  (* Not symmetric: FLE's vote order breaks ties by server id ([vote_gt]),
     so renaming nodes changes which vote wins. *)
  let permutable = false
  let node_key _ _ = 0
end

let spec ?(bugs = Bug.Flags.empty) () : Sandtable.Spec.t =
  (module Make (struct
    let bugs = bugs
  end))
