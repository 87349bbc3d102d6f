module P = Sandtable.Fault_plan

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let atom_ok s =
  s <> ""
  && String.for_all
       (function ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false | _ -> true)
       s

let check_trigger ctx ({ counter; count } : Schedule.trigger) =
  if not (List.mem counter P.counter_names) then
    failf "%s: unknown counter %S (expected one of %s)" ctx counter
      (String.concat ", " P.counter_names);
  if count < 0 then failf "%s: negative count %d" ctx count;
  { P.tg_counter = counter; tg_count = count }

let check_node ctx ~nodes id =
  if id < 0 || id >= nodes then
    failf "%s: node %d out of range for a %d-node cluster" ctx id nodes

let lower_sel ctx ~nodes = function
  | Schedule.Any -> P.Any_node
  | Schedule.Leader -> P.Leader
  | Schedule.Followers -> P.Followers
  | Schedule.Picked ids ->
    if ids = [] then failf "%s: empty (nodes ...) selector" ctx;
    List.iter (check_node ctx ~nodes) ids;
    P.Nodes (List.sort_uniq Int.compare ids)

let lower_groups ctx ~nodes = function
  | Schedule.All_proper -> P.All_groups
  | Schedule.Isolate_leader -> P.Isolate_leader
  | Schedule.Explicit gs ->
    if gs = [] then failf "%s: empty (groups ...) clause" ctx;
    P.Groups
      (List.map
         (fun g ->
           let g = List.sort_uniq Int.compare g in
           List.iter (check_node ctx ~nodes) g;
           if not (List.mem 0 g) then
             failf
               "%s: group must contain node 0 (the canonical side of the cut)"
               ctx;
           if List.length g >= nodes then
             failf "%s: group covers all %d nodes (not a proper cut)" ctx nodes;
           g)
         gs)

let lower_sample ctx ~seed = function
  | None -> None
  | Some k ->
    if k < 1 then failf "%s: (sample %d) must keep at least one candidate" ctx k;
    Some { P.sm_keep = k; sm_seed = seed }

let check_limit ctx limit =
  if limit < 0 then failf "%s: negative limit %d" ctx limit

(* running per-kind totals: a phase's cumulative cap is everything declared
   up to and including it *)
type totals = {
  mutable crash : int;
  mutable restart : int;
  mutable part : int;
  mutable drop : int;
  mutable dup : int;
  mutable timeout : int;
}

let lower_phase ~nodes ~seed totals (ph : Schedule.phase) =
  if not (atom_ok ph.label) then failf "invalid phase label %S" ph.label;
  let ctx kind = Printf.sprintf "phase %s: %s" ph.label kind in
  let crash = ref None and restart = ref None and part = ref None in
  let healm = ref P.Heal_auto and dropr = ref None and dupr = ref None in
  let timeoutr = ref None in
  let once name slot v =
    if Option.is_some !slot then failf "%s: duplicate clause" (ctx name);
    slot := Some v
  in
  let heal_set = ref false in
  List.iter
    (fun (fault : Schedule.fault) ->
      match fault with
      | Crash { limit; sel; sample } ->
        let ctx = ctx "crash" in
        check_limit ctx limit;
        once "crash" crash
          (if limit = 0 then None
           else begin
             totals.crash <- totals.crash + limit;
             Some
               { P.r_cap = totals.crash;
                 r_sel = lower_sel ctx ~nodes sel;
                 r_sample = lower_sample ctx ~seed sample }
           end)
      | Restart { limit; sel; sample } ->
        let ctx = ctx "restart" in
        check_limit ctx limit;
        once "restart" restart
          (if limit = 0 then None
           else begin
             totals.restart <- totals.restart + limit;
             Some
               { P.r_cap = totals.restart;
                 r_sel = lower_sel ctx ~nodes sel;
                 r_sample = lower_sample ctx ~seed sample }
           end)
      | Partition { limit; groups; sample } ->
        let ctx = ctx "partition" in
        check_limit ctx limit;
        once "partition" part
          (if limit = 0 then None
           else begin
             totals.part <- totals.part + limit;
             Some
               { P.pr_cap = totals.part;
                 pr_groups = lower_groups ctx ~nodes groups;
                 pr_sample = lower_sample ctx ~seed sample }
           end)
      | Heal h ->
        if !heal_set then failf "%s: duplicate clause" (ctx "heal");
        heal_set := true;
        healm :=
          (match h with
          | Auto -> P.Heal_auto
          | Never -> P.Heal_never
          | After_trigger tg ->
            P.Heal_after (check_trigger (ctx "heal after") tg))
      | Drop { limit; src; dst; sample } ->
        let ctx = ctx "drop" in
        check_limit ctx limit;
        once "drop" dropr
          (if limit = 0 then None
           else begin
             totals.drop <- totals.drop + limit;
             Some
               { P.lr_cap = totals.drop;
                 lr_src = lower_sel ctx ~nodes src;
                 lr_dst = lower_sel ctx ~nodes dst;
                 lr_sample = lower_sample ctx ~seed sample }
           end)
      | Dup { limit; src; dst; sample } ->
        let ctx = ctx "dup" in
        check_limit ctx limit;
        once "dup" dupr
          (if limit = 0 then None
           else begin
             totals.dup <- totals.dup + limit;
             Some
               { P.lr_cap = totals.dup;
                 lr_src = lower_sel ctx ~nodes src;
                 lr_dst = lower_sel ctx ~nodes dst;
                 lr_sample = lower_sample ctx ~seed sample }
           end)
      | Timeouts { limit; sel } ->
        let ctx = ctx "timeouts" in
        check_limit ctx limit;
        totals.timeout <- totals.timeout + limit;
        once "timeouts" timeoutr
          (Some
             { P.r_cap = totals.timeout;
               r_sel = lower_sel ctx ~nodes sel;
               r_sample = None }))
    ph.faults;
  let flat = Option.join in
  { P.ph_label = ph.label;
    ph_until = Option.map (check_trigger (ctx "until")) ph.until;
    ph_crash = flat !crash;
    ph_restart = flat !restart;
    ph_partition = flat !part;
    ph_heal = !healm;
    ph_drop = flat !dropr;
    ph_dup = flat !dupr;
    ph_timeout = flat !timeoutr }

let lower ~nodes (sch : Schedule.t) =
  if not (atom_ok sch.name) then failf "invalid schedule name %S" sch.name;
  if sch.phases = [] then failf "schedule %s: no phases" sch.name;
  if sch.seed < 0 then failf "schedule %s: negative seed" sch.name;
  let labels = List.map (fun (p : Schedule.phase) -> p.label) sch.phases in
  if List.length (List.sort_uniq String.compare labels) <> List.length labels
  then failf "schedule %s: duplicate phase labels" sch.name;
  List.iteri
    (fun i (p : Schedule.phase) ->
      if i < List.length sch.phases - 1 && p.until = None then
        failf
          "schedule %s: phase %s has no (until ...) but is not the final \
           phase — later phases would be unreachable"
          sch.name p.label)
    sch.phases;
  List.iter
    (fun (node, ms) ->
      check_node "skew" ~nodes node;
      if ms < 0 then failf "skew: negative ms %d" ms)
    sch.skew;
  let totals =
    { crash = 0; restart = 0; part = 0; drop = 0; dup = 0; timeout = 0 }
  in
  let phases = List.map (lower_phase ~nodes ~seed:sch.seed totals) sch.phases in
  let plan =
    { P.pl_name = sch.name;
      pl_phases = phases;
      pl_skew_ms = sch.skew;
      pl_src = Schedule.to_string sch }
  in
  (plan, totals)

let to_plan ~nodes sch =
  match lower ~nodes sch with
  | plan, _ -> Ok plan
  | exception Bad msg -> Error msg

(* raise [key] to at least [cap], preserving budget order (append if new) *)
let set_at_least key cap budget =
  if List.mem_assoc key budget then
    List.map (fun (k, v) -> (k, if k = key then max v cap else v)) budget
  else budget @ [ (key, cap) ]

let apply sch (scenario : Sandtable.Scenario.t) =
  match lower ~nodes:scenario.nodes sch with
  | exception Bad msg -> Error msg
  | plan, totals ->
    let budget =
      List.fold_left
        (fun b (key, cap) -> if cap > 0 then set_at_least key cap b else b)
        scenario.budget
        [ ("crashes", totals.crash); ("restarts", totals.restart);
          ("partitions", totals.part); ("drops", totals.drop);
          ("dups", totals.dup); ("timeouts", totals.timeout) ]
    in
    Ok { scenario with budget; faults = Some plan }
