(* Golden tests for successor labels. A label is part of a [Trace.event]:
   it is written into traces, interned in checkpoint event tables, used by
   the (src, dst, desc) re-addressing in [Shrink] and saved in run
   directories. So each label must stay byte-identical to the Format
   string it was first written with. Those format strings are the oracles
   below. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug
module Msg = Raft_kernel.Msg
module Z = Systems.Zookeeper_spec

let case name f = Alcotest.test_case name `Quick f
let ints = [ 0; 1; 9; 10; 99; 100; 4096; -1 ]
let bools = [ false; true ]
let lengths = [ 0; 1; 9; 10 ]
let ( let* ) l f = List.concat_map f l

let golden what oracle describe cases =
  Alcotest.(check bool) (what ^ " cases") true (cases <> []);
  List.iter
    (fun c ->
      let expected = oracle c and actual = describe c in
      if not (String.equal expected actual) then
        Alcotest.failf "%s: expected %S, got %S" what expected actual)
    cases

let msg_oracle = function
  | Msg.Request_vote { term; last_log_index; last_log_term; prevote } ->
    Fmt.str "%s(t%d,l%d:%d)" (if prevote then "PreRV" else "RV") term
      last_log_index last_log_term
  | Vote { term; granted; prevote } ->
    Fmt.str "%s(t%d,%c)" (if prevote then "PreVote" else "Vote") term
      (if granted then 'T' else 'F')
  | Append_entries { term; prev_index; prev_term; entries; commit } ->
    Fmt.str "AE(t%d,p%d:%d,+%d,c%d)" term prev_index prev_term
      (List.length entries) commit
  | Append_reply { term; success; next_hint } ->
    Fmt.str "AER(t%d,%c,n%d)" term (if success then 'T' else 'F') next_hint
  | Snapshot { term; last_index; last_term } ->
    Fmt.str "Snap(t%d,l%d:%d)" term last_index last_term
  | Snapshot_reply { term; success; next_hint } ->
    Fmt.str "SnapR(t%d,%c,n%d)" term (if success then 'T' else 'F') next_hint

let msgs =
  let entries n =
    List.init n (fun i -> Raft_kernel.Types.entry ~term:i ~value:i)
  in
  (let* term = ints in
   let* last_log_index = ints in
   let* last_log_term = ints in
   let* prevote = bools in
   [ Msg.Request_vote { term; last_log_index; last_log_term; prevote } ])
  @ (let* term = ints in
     let* granted = bools in
     let* prevote = bools in
     [ Msg.Vote { term; granted; prevote } ])
  @ (let* term = ints in
     let* prev_index = ints in
     let* prev_term = ints in
     let* n = lengths in
     let* commit = ints in
     [ Msg.Append_entries
         { term; prev_index; prev_term; entries = entries n; commit } ])
  @ (let* term = ints in
     let* success = bools in
     let* next_hint = ints in
     [ Msg.Append_reply { term; success; next_hint };
       Msg.Snapshot_reply { term; success; next_hint } ])
  @
  let* term = ints in
  let* last_index = ints in
  let* last_term = ints in
  [ Msg.Snapshot { term; last_index; last_term } ]

let zmsg_oracle = function
  | Z.Notification { vote; round; looking } ->
    Fmt.str "Not(l%d,e%d,z%d:%d,r%d,%c)" (vote.v_leader + 1) vote.v_epoch
      (fst vote.v_zxid) (snd vote.v_zxid) round
      (if looking then 'L' else 'F')
  | Follower_info { epoch; zxid } ->
    Fmt.str "FInfo(e%d,z%d:%d)" epoch (fst zxid) (snd zxid)
  | Leader_info { epoch } -> Fmt.str "LInfo(e%d)" epoch
  | Epoch_ack { epoch } -> Fmt.str "EpochAck(e%d)" epoch
  | Sync { epoch; history; commit } ->
    Fmt.str "Sync(e%d,+%d,c%d)" epoch (List.length history) commit
  | Sync_ack { epoch } -> Fmt.str "SyncAck(e%d)" epoch
  | Proposal { epoch; index; value } ->
    Fmt.str "Prop(e%d,i%d,v%d)" epoch index value
  | Prop_ack { index } -> Fmt.str "PropAck(i%d)" index
  | Commit { index } -> Fmt.str "Commit(i%d)" index

let zmsgs =
  let history n = List.init n (fun i -> { Z.zepoch = i; value = i }) in
  (let* v_leader = ints in
   let* v_epoch = ints in
   let* za = ints in
   let* zb = ints in
   let* round = ints in
   let* looking = bools in
   [ Z.Notification
       { vote = { v_leader; v_epoch; v_zxid = za, zb }; round; looking } ])
  @ (let* epoch = ints in
     let* za = ints in
     let* zb = ints in
     [ Z.Follower_info { epoch; zxid = za, zb } ])
  @ (let* epoch = ints in
     [ Z.Leader_info { epoch }; Z.Epoch_ack { epoch }; Z.Sync_ack { epoch } ])
  @ (let* epoch = ints in
     let* n = lengths in
     let* commit = ints in
     [ Z.Sync { epoch; history = history n; commit } ])
  @ (let* epoch = ints in
     let* index = ints in
     let* value = ints in
     [ Z.Proposal { epoch; index; value } ])
  @
  let* index = ints in
  [ Z.Prop_ack { index }; Z.Commit { index } ]

let test_msg () = golden "Msg.describe" msg_oracle Msg.describe msgs
let test_zmsg () = golden "describe_zmsg" zmsg_oracle Z.describe_zmsg zmsgs

let client_ops successors =
  List.filter_map
    (function Trace.Client { op; _ }, _ -> Some op | _ -> None)
    successors

(* Walk [sys]'s fixed spec at random until a client request is enabled,
   then relabel that state's requests with every workload value. *)
let test_client_ops (sys : R.t) () =
  let (module S : Spec.S) = sys.spec Bug.Flags.empty in
  let scenario = sys.default_scenario in
  let rng = Random.State.make [| 7 |] in
  let rec walk restarts depth st =
    let succ = S.next scenario st in
    if client_ops succ <> [] then st
    else if succ = [] || depth >= 200 then begin
      if restarts >= 500 then Alcotest.failf "%s: no client request" sys.name;
      walk (restarts + 1) 0 (List.hd (S.init scenario))
    end
    else
      let _, st' = List.nth succ (Random.State.int rng (List.length succ)) in
      walk restarts (depth + 1) st'
  in
  let st = walk 0 0 (List.hd (S.init scenario)) in
  let oracle v =
    if String.equal sys.name "zookeeper" then Fmt.str "create:%d" v
    else Fmt.str "put:%d" v
  in
  List.iter
    (fun v ->
      let ops =
        client_ops (S.next { scenario with workload = [ v ] } st)
        |> List.filter (fun op -> not (String.equal op "get"))
      in
      golden (sys.name ^ " client op") (fun _ -> oracle v) Fun.id ops)
    ints

let suite =
  ( "labels",
    [ case "Msg.describe golden" test_msg;
      case "ZooKeeper describe_zmsg golden" test_zmsg ]
    @ List.map
        (fun (sys : R.t) -> case (sys.name ^ " client op labels") (test_client_ops sys))
        R.all )
