(* ZooKeeper (Zab) re-implementation mirroring {!Zookeeper_spec}: fast
   leader election, discovery, snapshot synchronization and broadcast, run
   under the deterministic execution engine.

   Zab messages are serialized with [Marshal]: the Java implementation's
   jute-encoded records are an implementation detail the paper's
   specification abstracts away (§3.1); the wire framing and boundary
   handling are still exercised by the proxy. *)

module Syscall = Engine.Syscall
module Z = Zookeeper_spec

type t = {
  ctx : Syscall.t;
  bugs : Bug.Flags.t;
  mutable role : Z.zrole;
  mutable round : int;
  mutable vote : Z.vote;
  mutable recv_votes : (int * Z.vote * int) list;
  mutable epoch : int;
  mutable history : Z.txn list;
  mutable commit_index : int;
  mutable leader : int option;
  mutable established : bool;
  mutable accepted_epoch : int;
  mutable proposed_epoch : int;
  mutable finfo_from : (int * int) list;
  mutable epoch_acks : int list;
  mutable synced : int list;
  mutable acks : (int * int list) list;
}

let has t flag = Bug.Flags.mem flag t.bugs

let encode (m : Z.zmsg) = Marshal.to_bytes m []
let decode payload : Z.zmsg = Marshal.from_bytes payload 0

let persist_all t =
  t.ctx.persist_set "epoch" (string_of_int t.epoch);
  t.ctx.persist_set "accepted_epoch" (string_of_int t.accepted_epoch);
  t.ctx.persist_set "commit" (string_of_int t.commit_index);
  t.ctx.persist_set "history"
    (Marshal.to_string
       (List.map (fun (x : Z.txn) -> x.zepoch, x.value) t.history)
       [])

let recover t =
  Option.iter (fun s -> t.epoch <- int_of_string s) (t.ctx.persist_get "epoch");
  Option.iter
    (fun s -> t.accepted_epoch <- int_of_string s)
    (t.ctx.persist_get "accepted_epoch");
  Option.iter
    (fun s -> t.commit_index <- int_of_string s)
    (t.ctx.persist_get "commit");
  Option.iter
    (fun s ->
      let txns = (Marshal.from_string s 0 : (int * int) list) in
      t.history <-
        List.map (fun (zepoch, value) -> { Z.zepoch; value }) txns)
    (t.ctx.persist_get "history")

let zxid_of t =
  match List.rev t.history with
  | [] -> 0, 0
  | last :: _ -> last.Z.zepoch, List.length t.history

let self_vote t : Z.vote =
  { v_leader = t.ctx.id; v_epoch = t.epoch; v_zxid = zxid_of t }

let log_state t =
  t.ctx.log
    (Fmt.str "STATE role=%s round=%d epoch=%d commit=%d last=%d"
       (Z.zrole_to_string t.role) t.round t.epoch t.commit_index
       (List.length t.history))

let send t ~dst msg = ignore (t.ctx.send ~dst (encode msg))

let broadcast t msg =
  for dst = 0 to t.ctx.nodes - 1 do
    if dst <> t.ctx.id then send t ~dst msg
  done

let vote_gt t (a : Z.vote) (b : Z.vote) =
  if has t "zk1" then
    compare (snd a.v_zxid, a.v_leader) (snd b.v_zxid, b.v_leader) > 0
  else
    compare (a.v_epoch, a.v_zxid, a.v_leader) (b.v_epoch, b.v_zxid, b.v_leader)
    > 0

let notification t : Z.zmsg =
  Notification { vote = t.vote; round = t.round; looking = t.role = Z.Looking }

let vote_quorum t =
  let supporters =
    List.filter
      (fun (_, (v : Z.vote), round) ->
        round = t.round && v.v_leader = t.vote.v_leader)
      t.recv_votes
  in
  Raft_kernel.Types.is_quorum (List.length supporters + 1) ~nodes:t.ctx.nodes

let send_follower_info t leader =
  send t ~dst:leader (Z.Follower_info { epoch = t.epoch; zxid = zxid_of t })

let try_elect t =
  if vote_quorum t then
    if t.vote.Z.v_leader = t.ctx.id then begin
      t.role <- Z.Leading;
      t.leader <- Some t.ctx.id;
      t.established <- false;
      t.proposed_epoch <- 0;
      t.finfo_from <- [ t.ctx.id, t.accepted_epoch ];
      t.epoch_acks <- [];
      t.synced <- [];
      t.acks <- []
    end
    else begin
      let leader = t.vote.Z.v_leader in
      t.role <- Z.Following;
      t.leader <- Some leader;
      send_follower_info t leader
    end

let start_election t =
  t.role <- Z.Looking;
  t.round <- t.round + 1;
  t.vote <- self_vote t;
  t.recv_votes <- [];
  t.leader <- None;
  t.established <- false;
  t.proposed_epoch <- 0;
  t.finfo_from <- [];
  t.epoch_acks <- [];
  t.synced <- [];
  t.acks <- [];
  broadcast t (notification t);
  try_elect t

let record_vote t ~src v round =
  let others = List.filter (fun (s, _, _) -> s <> src) t.recv_votes in
  t.recv_votes <- List.sort compare ((src, v, round) :: others)

let rec handle_notification t ~src ~(vote : Z.vote) ~round ~looking =
  if t.role = Z.Looking then begin
    if round > t.round then begin
      t.round <- round;
      t.recv_votes <- [];
      let mine = self_vote t in
      t.vote <- (if vote_gt t vote mine then vote else mine);
      record_vote t ~src vote round;
      broadcast t (notification t);
      try_elect t
    end
    else if round = t.round then begin
      if vote_gt t vote t.vote then begin
        t.vote <- vote;
        broadcast t (notification t)
      end;
      record_vote t ~src vote round;
      try_elect t
    end
    else if looking then send t ~dst:src (notification t)
  end
  else if looking then send t ~dst:src (notification t)

and handle_notification_rejoin t ~src ~(vote : Z.vote) ~round ~looking =
  (* settled-peer fast path: adopt the reported leader *)
  if t.role = Z.Looking && (not looking) && round >= t.round && vote.Z.v_leader = src
  then begin
    let leader = vote.Z.v_leader in
    if leader <> t.ctx.id then begin
      t.role <- Z.Following;
      t.leader <- Some leader;
      t.round <- round;
      send_follower_info t leader
    end
  end
  else handle_notification t ~src ~vote ~round ~looking

let sync_follower t follower =
  send t ~dst:follower
    (Z.Sync { epoch = t.epoch; history = t.history; commit = t.commit_index })

let handle_follower_info t ~src ~epoch ~zxid =
  ignore zxid;
  if t.role = Z.Leading then begin
    if not (List.mem_assoc src t.finfo_from) then
      t.finfo_from <- List.sort compare ((src, epoch) :: t.finfo_from);
    if t.established then begin
      send t ~dst:src (Z.Leader_info { epoch = t.epoch });
      sync_follower t src
    end
    else if
      t.proposed_epoch = 0
      && Raft_kernel.Types.is_quorum (List.length t.finfo_from)
           ~nodes:t.ctx.nodes
    then begin
      let max_accepted =
        List.fold_left (fun m (_, e) -> max m e) t.accepted_epoch t.finfo_from
      in
      t.proposed_epoch <- max_accepted + 1;
      t.accepted_epoch <- t.proposed_epoch;
      t.epoch_acks <- [ t.ctx.id ];
      persist_all t;
      List.iter
        (fun (f, _) ->
          if f <> t.ctx.id then
            send t ~dst:f (Z.Leader_info { epoch = t.proposed_epoch }))
        t.finfo_from
    end
    else if t.proposed_epoch <> 0 then
      send t ~dst:src (Z.Leader_info { epoch = t.proposed_epoch })
  end

let handle_leader_info t ~src ~epoch =
  if t.role = Z.Following && t.leader = Some src && epoch >= t.accepted_epoch
  then begin
    t.accepted_epoch <- epoch;
    persist_all t;
    send t ~dst:src (Z.Epoch_ack { epoch })
  end

let handle_epoch_ack t ~src ~epoch =
  if
    t.role = Z.Leading && (not t.established) && epoch = t.proposed_epoch
    && not (List.mem src t.epoch_acks)
  then begin
    t.epoch_acks <- List.sort Int.compare (src :: t.epoch_acks);
    if Raft_kernel.Types.is_quorum (List.length t.epoch_acks) ~nodes:t.ctx.nodes
    then begin
      t.epoch <- t.proposed_epoch;
      t.established <- true;
      t.synced <- [ t.ctx.id ];
      persist_all t;
      List.iter
        (fun f -> if f <> t.ctx.id then sync_follower t f)
        t.epoch_acks
    end
  end

let handle_sync t ~src ~epoch ~history ~commit =
  if t.leader = Some src && epoch >= t.accepted_epoch then begin
    t.epoch <- epoch;
    t.accepted_epoch <- max t.accepted_epoch epoch;
    t.history <- history;
    t.commit_index <- commit;
    persist_all t;
    send t ~dst:src (Z.Sync_ack { epoch })
  end

let handle_sync_ack t ~src ~epoch =
  if t.role = Z.Leading && epoch = t.epoch && not (List.mem src t.synced)
  then t.synced <- List.sort Int.compare (src :: t.synced)

let handle_proposal t ~src ~epoch ~index ~value =
  if
    t.leader = Some src && epoch = t.epoch
    && index = List.length t.history + 1
  then begin
    t.history <- t.history @ [ { Z.zepoch = epoch; value } ];
    persist_all t;
    send t ~dst:src (Z.Prop_ack { index })
  end

let handle_prop_ack t ~src ~index =
  if t.role = Z.Leading then begin
    let ackers =
      match List.assoc_opt index t.acks with
      | Some l -> if List.mem src l then l else List.sort Int.compare (src :: l)
      | None -> [ src ]
    in
    t.acks <- (index, ackers) :: List.remove_assoc index t.acks;
    if
      Raft_kernel.Types.is_quorum (List.length ackers) ~nodes:t.ctx.nodes
      && index > t.commit_index
    then begin
      t.commit_index <- index;
      persist_all t;
      List.iter
        (fun f -> if f <> t.ctx.id then send t ~dst:f (Z.Commit { index }))
        t.synced
    end
  end

let handle_commit t ~src ~index =
  if t.leader = Some src then begin
    t.commit_index <- max t.commit_index (min index (List.length t.history));
    persist_all t
  end

let on_client t ~op =
  match String.split_on_char ':' op with
  | [ "create"; v ] when t.role = Z.Leading && t.established ->
    let value = int_of_string v in
    let index = List.length t.history + 1 in
    t.history <- t.history @ [ { Z.zepoch = t.epoch; value } ];
    t.acks <- (index, [ t.ctx.id ]) :: t.acks;
    persist_all t;
    List.iter
      (fun f ->
        if f <> t.ctx.id then
          send t ~dst:f (Z.Proposal { epoch = t.epoch; index; value }))
      t.synced
  | _ -> ()

(* Fields in canonical (name) order: [Tla.Value.record] keeps them as is. *)
let observe t =
  let open Tla.Value in
  record
    [ "accepted_epoch", int t.accepted_epoch;
      "commit", int t.commit_index;
      "epoch", int t.epoch;
      "established", bool t.established;
      "history", seq (List.map Z.observe_txn t.history);
      "leader", (match t.leader with None -> str "none" | Some l -> int l);
      "role", str (Z.zrole_to_string t.role);
      "round", int t.round;
      "status", str "up";
      "vote", Z.observe_vote t.vote ]

let handle_message t ~src payload =
  (match decode payload with
  | Z.Notification { vote; round; looking } ->
    handle_notification_rejoin t ~src ~vote ~round ~looking
  | Z.Follower_info { epoch; zxid } -> handle_follower_info t ~src ~epoch ~zxid
  | Z.Leader_info { epoch } -> handle_leader_info t ~src ~epoch
  | Z.Epoch_ack { epoch } -> handle_epoch_ack t ~src ~epoch
  | Z.Sync { epoch; history; commit } -> handle_sync t ~src ~epoch ~history ~commit
  | Z.Sync_ack { epoch } -> handle_sync_ack t ~src ~epoch
  | Z.Proposal { epoch; index; value } ->
    handle_proposal t ~src ~epoch ~index ~value
  | Z.Prop_ack { index } -> handle_prop_ack t ~src ~index
  | Z.Commit { index } -> handle_commit t ~src ~index);
  log_state t

let on_timeout t ~kind =
  (match kind with
  | "election" -> start_election t
  | other -> failwith ("zookeeper: unknown timeout kind " ^ other));
  log_state t

let boot ?(bugs = Bug.Flags.empty) () : Syscall.boot =
 fun ctx ->
  let t =
    { ctx;
      bugs;
      role = Z.Looking;
      round = 0;
      vote = { v_leader = ctx.id; v_epoch = 0; v_zxid = 0, 0 };
      recv_votes = [];
      epoch = 0;
      history = [];
      commit_index = 0;
      leader = None;
      established = false;
      accepted_epoch = 0;
      proposed_epoch = 0;
      finfo_from = [];
      epoch_acks = [];
      synced = [];
      acks = [] }
  in
  recover t;
  t.vote <- self_vote t;
  log_state t;
  { Syscall.handle_message = handle_message t;
    on_timeout = on_timeout t;
    on_client =
      (fun ~op ->
        on_client t ~op;
        log_state t);
    observe = (fun () -> observe t) }
