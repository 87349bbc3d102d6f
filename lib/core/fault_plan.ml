type node_sel = Any_node | Nodes of int list | Leader | Followers

type group_sel =
  | All_groups
  | Groups of int list list
  | Isolate_leader

type trigger = { tg_counter : string; tg_count : int }
type sample = { sm_keep : int; sm_seed : int }
type rule = { r_cap : int; r_sel : node_sel; r_sample : sample option }

type link_rule = {
  lr_cap : int;
  lr_src : node_sel;
  lr_dst : node_sel;
  lr_sample : sample option;
}

type part_rule = { pr_cap : int; pr_groups : group_sel; pr_sample : sample option }
type heal_mode = Heal_auto | Heal_never | Heal_after of trigger

type phase = {
  ph_label : string;
  ph_until : trigger option;
  ph_crash : rule option;
  ph_restart : rule option;
  ph_partition : part_rule option;
  ph_heal : heal_mode;
  ph_drop : link_rule option;
  ph_dup : link_rule option;
  ph_timeout : rule option;
}

type t = {
  pl_name : string;
  pl_phases : phase list;
  pl_skew_ms : (int * int) list;
  pl_src : string;
}

let counter_names =
  [ "timeouts"; "requests"; "crashes"; "restarts"; "partitions"; "drops";
    "dups" ]

let counter_value (c : Counters.t) = function
  | "timeouts" -> c.timeouts
  | "requests" -> c.requests
  | "crashes" -> c.crashes
  | "restarts" -> c.restarts
  | "partitions" -> c.partitions
  | "drops" -> c.drops
  | "dups" -> c.dups
  | name -> invalid_arg ("Fault_plan.counter_value: unknown counter " ^ name)

let trigger_met c tg = counter_value c tg.tg_counter >= tg.tg_count

let phase_index t c =
  let rec walk i = function
    | [] | [ _ ] -> i
    | ph :: rest -> (
      match ph.ph_until with
      | Some tg when trigger_met c tg -> walk (i + 1) rest
      | Some _ | None -> i)
  in
  walk 0 t.pl_phases

(* The first binding of a key wins, as in [Scenario.budget_get] (which
   this module sits below). A cap of 0 disables its kind, as a clause
   with limit 0 does in a compiled plan. *)
let budget_phase budget =
  let cap key ~default =
    match List.assoc_opt key budget with Some v -> v | None -> default
  in
  let enabled key ~default mk =
    let c = cap key ~default in
    if c > 0 then Some (mk c) else None
  in
  let node c = { r_cap = c; r_sel = Any_node; r_sample = None } in
  let link c =
    { lr_cap = c; lr_src = Any_node; lr_dst = Any_node; lr_sample = None }
  in
  { ph_label = "budget";
    ph_until = None;
    ph_crash = enabled "crashes" ~default:1 node;
    ph_restart = enabled "restarts" ~default:1 node;
    ph_partition =
      enabled "partitions" ~default:1 (fun c ->
          { pr_cap = c; pr_groups = All_groups; pr_sample = None });
    ph_heal = Heal_auto;
    ph_drop = enabled "drops" ~default:0 link;
    ph_dup = enabled "dups" ~default:0 link;
    ph_timeout = None }

let node_selected sel ~leader node =
  match sel with
  | Any_node -> true
  | Nodes ids -> List.mem node ids
  | Leader -> leader = Some node
  | Followers -> leader <> Some node

(* FNV-1a (32-bit parameters, 63-bit accumulator) over (seed, key): a
   stable, platform-independent ranking for sampled selection. Pure, so
   sampling commutes with engine choice. *)
let rank_hash seed key =
  let h = ref 0x811c9dc5 in
  let mix byte = h := (!h lxor byte) * 0x01000193 land 0xffffffff in
  mix (seed land 0xff);
  mix ((seed lsr 8) land 0xff);
  mix ((seed lsr 16) land 0xff);
  String.iter (fun ch -> mix (Char.code ch)) key;
  !h land max_int

let sample_select s key cands =
  match s with
  | None -> cands
  | Some { sm_keep; sm_seed } ->
    if List.length cands <= sm_keep then cands
    else
      let ranked =
        List.mapi (fun i c -> (rank_hash sm_seed (key c), i, c)) cands
      in
      let sorted =
        List.sort
          (fun (h1, i1, _) (h2, i2, _) ->
            match Int.compare h1 h2 with 0 -> Int.compare i1 i2 | c -> c)
          ranked
      in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      take sm_keep sorted
      |> List.sort (fun (_, i1, _) (_, i2, _) -> Int.compare i1 i2)
      |> List.map (fun (_, _, c) -> c)

let digest t = rank_hash 0 t.pl_src land 0xffffff

let phase_kinds ph =
  let on name = function
    | Some { r_cap; _ } when r_cap > 0 -> [ name ]
    | Some _ | None -> []
  in
  on "crash" ph.ph_crash @ on "restart" ph.ph_restart
  @ (match ph.ph_partition with
    | Some { pr_cap; _ } when pr_cap > 0 -> [ "partition" ]
    | Some _ | None -> [])
  @ (match ph.ph_drop with
    | Some { lr_cap; _ } when lr_cap > 0 -> [ "drop" ]
    | Some _ | None -> [])
  @ (match ph.ph_dup with
    | Some { lr_cap; _ } when lr_cap > 0 -> [ "dup" ]
    | Some _ | None -> [])
  @ (match ph.ph_timeout with Some _ -> [ "timeout" ] | None -> [])
  @ match ph.ph_heal with Heal_auto -> [] | Heal_never | Heal_after _ -> [ "heal" ]

let enabled_kinds t =
  let kinds =
    List.concat_map phase_kinds t.pl_phases
    @ if t.pl_skew_ms <> [] then [ "skew" ] else []
  in
  List.sort_uniq String.compare kinds

(* Heal-mode tweaks alone cannot matter: with no fault enabled anywhere the
   network stays fully connected and Heal is never enumerated. *)
let is_noop t = List.for_all (fun k -> k = "heal") (enabled_kinds t)

let obs_kind (e : Trace.event) =
  match e with
  | Trace.Crash _ -> Some "fault.crash"
  | Trace.Restart _ -> Some "fault.restart"
  | Trace.Partition _ -> Some "fault.partition"
  | Trace.Heal -> Some "fault.heal"
  | Trace.Drop _ -> Some "fault.drop"
  | Trace.Duplicate _ -> Some "fault.dup"
  | Trace.Deliver _ | Trace.Timeout _ | Trace.Client _ -> None

let pp ppf t =
  Fmt.pf ppf "%s#%06x: %d phase%s [%a]%s" t.pl_name (digest t)
    (List.length t.pl_phases)
    (if List.length t.pl_phases = 1 then "" else "s")
    Fmt.(list ~sep:(any ",") string)
    (enabled_kinds t)
    (if t.pl_skew_ms = [] then ""
     else
       Fmt.str " skew{%s}"
         (String.concat ","
            (List.map
               (fun (n, ms) -> Printf.sprintf "%s+%dms" (Trace.node_name n) ms)
               t.pl_skew_ms)))
