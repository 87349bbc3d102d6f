type 'st ops = {
  counters : 'st -> Counters.t;
  with_counters : 'st -> Counters.t -> 'st;
  node_count : 'st -> int;
  alive : 'st -> int -> bool;
  fully_connected : 'st -> bool;
  crash : 'st -> int -> 'st;
  restart : 'st -> int -> 'st;
  partition : 'st -> int list -> 'st;
  heal : 'st -> 'st;
  leader : 'st -> int option;
}

type 'st net_ops = {
  net_deliverable : 'st -> (int * int * int) list;
  net_drop : 'st -> src:int -> dst:int -> index:int -> 'st option;
  net_duplicate : 'st -> src:int -> dst:int -> index:int -> 'st option;
}

let proper_groups n =
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun g -> x :: g) s
  in
  subsets (List.init (n - 1) (fun i -> i + 1))
  |> List.filter (fun g -> List.length g < n - 1 || n = 1)
  |> List.map (fun g -> 0 :: g)

let group_key g = String.concat "," (List.map string_of_int g)

(* Telemetry watermark: the highest plan-phase index interpreted since the
   last reset. Written only by [phase] under an explicit plan (so budget
   runs never touch it); a lost racing update is corrected by the next
   state that reaches the same phase, and samples are taken at layer
   barriers where every state of the layer has been enumerated. *)
let phase_mark = Atomic.make (-1)

let reset_phase_watermark () = Atomic.set phase_mark (-1)
let phase_watermark () = Atomic.get phase_mark

let note_phase phi =
  if phi > Atomic.get phase_mark then Atomic.set phase_mark phi

(* A scenario without a plan runs under its budget's one phase, built
   once per budget list rather than once per state. *)
let budget_phase = Scenario.memo Fault_plan.budget_phase

let phase ops (scenario : Scenario.t) st =
  match scenario.faults with
  | None -> budget_phase scenario.budget
  | Some plan ->
    let phi = Fault_plan.phase_index plan (ops.counters st) in
    note_phase phi;
    List.nth plan.Fault_plan.pl_phases phi

(* Calls [f] on each node the rule selects among those whose liveness is
   [alive], ascending. An unsampled any-node rule builds no list and never
   asks for the leader. *)
let iter_nodes ops st (r : Fault_plan.rule) ~alive f =
  let n = ops.node_count st in
  match (r.r_sel, r.r_sample) with
  | Fault_plan.Any_node, None ->
    for node = 0 to n - 1 do
      if ops.alive st node = alive then f node
    done
  | sel, sample ->
    let leader = ops.leader st in
    List.init n Fun.id
    |> List.filter (fun node ->
           ops.alive st node = alive
           && Fault_plan.node_selected sel ~leader node)
    |> Fault_plan.sample_select sample string_of_int
    |> List.iter f

(* Crashes ascending, restarts ascending, partition groups, heal: the
   active phase's selectors, cumulative caps and sampling applied. Each
   successor is built when its thunk is forced. *)
let failure_events ops (ph : Fault_plan.phase) st =
  let counters = ops.counters st in
  let n = ops.node_count st in
  let out = ref [] in
  let add event build = out := (event, build) :: !out in
  let bumped event = ops.with_counters st (Counters.bump counters event) in
  (match ph.ph_crash with
  | Some r when counters.crashes < r.r_cap ->
    iter_nodes ops st r ~alive:true (fun node ->
        let event = Trace.Crash { node } in
        add event (fun () -> ops.crash (bumped event) node))
  | Some _ | None -> ());
  (match ph.ph_restart with
  | Some r when counters.restarts < r.r_cap ->
    iter_nodes ops st r ~alive:false (fun node ->
        let event = Trace.Restart { node } in
        add event (fun () -> ops.restart (bumped event) node))
  | Some _ | None -> ());
  (match ph.ph_partition with
  | Some pr
    when counters.partitions < pr.pr_cap && ops.fully_connected st && n > 1
    ->
    let groups =
      match pr.pr_groups with
      | Fault_plan.All_groups -> proper_groups n
      | Fault_plan.Groups gs ->
        List.filter (fun g -> List.for_all (fun i -> i < n) g) gs
      | Fault_plan.Isolate_leader -> (
        match ops.leader st with
        | None -> []
        | Some l ->
          (* canonical representative of the {leader} | rest cut: the side
             containing node 0 *)
          if l = 0 then [ [ 0 ] ]
          else [ List.filter (fun i -> i <> l) (List.init n Fun.id) ])
    in
    List.iter
      (fun group ->
        let event = Trace.Partition { group } in
        add event (fun () -> ops.partition (bumped event) group))
      (Fault_plan.sample_select pr.pr_sample group_key groups)
  | Some _ | None -> ());
  (if not (ops.fully_connected st) then
     let heal () = ops.heal st in
     match ph.ph_heal with
     | Fault_plan.Heal_auto -> add Trace.Heal heal
     | Fault_plan.Heal_never -> ()
     | Fault_plan.Heal_after tg ->
       if Fault_plan.trigger_met counters tg then add Trace.Heal heal);
  List.rev !out

let link_key (src, dst, index) = Printf.sprintf "%d>%d#%d" src dst index

let packet_events ops net (ph : Fault_plan.phase) st =
  let counters = ops.counters st in
  let out = ref [] in
  let faulted mk apply (src, dst, index) =
    let event = mk ~src ~dst ~index in
    let build () =
      match apply st ~src ~dst ~index with
      | Some st' -> ops.with_counters st' (Counters.bump counters event)
      | None ->
        invalid_arg
          ("Envgen.packet_events: no packet at " ^ link_key (src, dst, index))
    in
    out := (event, build) :: !out
  in
  let drop = faulted (fun ~src ~dst ~index -> Trace.Drop { src; dst; index }) net.net_drop in
  let dup =
    faulted
      (fun ~src ~dst ~index -> Trace.Duplicate { src; dst; index })
      net.net_duplicate
  in
  let deliverable = lazy (net.net_deliverable st) in
  let candidates (lr : Fault_plan.link_rule) =
    match (lr.lr_src, lr.lr_dst, lr.lr_sample) with
    | Fault_plan.Any_node, Fault_plan.Any_node, None -> Lazy.force deliverable
    | src_sel, dst_sel, sample ->
      let leader = ops.leader st in
      Lazy.force deliverable
      |> List.filter (fun (src, dst, _) ->
             Fault_plan.node_selected src_sel ~leader src
             && Fault_plan.node_selected dst_sel ~leader dst)
      |> Fault_plan.sample_select sample link_key
  in
  (match ph.ph_drop with
  | Some lr when counters.drops < lr.lr_cap -> List.iter drop (candidates lr)
  | Some _ | None -> ());
  (match ph.ph_dup with
  | Some lr when counters.dups < lr.lr_cap -> List.iter dup (candidates lr)
  | Some _ | None -> ());
  List.rev !out

let timeout_allowed ops (ph : Fault_plan.phase) st ~node =
  match ph.ph_timeout with
  | None -> true
  | Some r ->
    (ops.counters st).timeouts < r.r_cap
    && Fault_plan.node_selected r.r_sel ~leader:(ops.leader st) node
