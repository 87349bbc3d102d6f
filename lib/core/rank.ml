type config = { cname : string; nodes : int; workload : int list }

type datum = {
  budget : Scenario.budget;
  coverage : int;
  diversity : int;
  mean_depth : float;
  max_depth : int;
  violations : int;
}

let default_compare a b =
  (* Coverage and diversity decreasing, then depth increasing: smaller depth
     suggests a smaller space that BFS can exhaust (§3.3). *)
  let c = Int.compare b.coverage a.coverage in
  if c <> 0 then c
  else
    let c = Int.compare b.diversity a.diversity in
    if c <> 0 then c else Float.compare a.mean_depth b.mean_depth

let evaluate spec config budget ~walks_per ~walk_depth ~seed =
  let scenario =
    Scenario.v ~name:config.cname ~nodes:config.nodes
      ~workload:config.workload budget
  in
  let opts = { Simulate.default with max_depth = walk_depth } in
  let ws = Simulate.walks spec scenario opts ~seed ~count:walks_per in
  let agg = Simulate.aggregate ws in
  { budget;
    coverage = Coverage.cardinal agg.Simulate.union_coverage;
    diversity = List.length agg.Simulate.event_kinds;
    mean_depth = agg.Simulate.mean_depth;
    max_depth = agg.Simulate.max_depth_seen;
    violations = agg.Simulate.violations }

let rank ?(compare = default_compare) spec ~configs ~budgets ~walks_per
    ~walk_depth ~seed =
  List.map
    (fun config ->
      let data =
        List.map
          (fun budget ->
            evaluate spec config budget ~walks_per ~walk_depth ~seed)
          budgets
      in
      config, List.stable_sort compare data)
    configs

let pp_datum ppf d =
  Fmt.pf ppf "[%a] coverage=%d diversity=%d mean_depth=%.1f max_depth=%d%s"
    Scenario.pp_budget d.budget d.coverage d.diversity d.mean_depth d.max_depth
    (if d.violations > 0 then Fmt.str " violations=%d" d.violations else "")
