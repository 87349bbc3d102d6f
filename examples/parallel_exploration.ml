(* Parallel exploration: the lib/par subsystem on one system.

     dune exec examples/parallel_exploration.exe

   1. explore the buggy raftos spec with the sequential BFS engine,
   2. explore it again with the layer-synchronous parallel BFS at 4 workers
      and check the two results agree bit-for-bit (distinct states, outcome,
      violation depth — the parallel engine is sequential-equivalent),
   3. generate random walks on a domain pool and show that the walk list for
      a fixed root seed is independent of the worker count. *)

open Sandtable

let () =
  let sys = Systems.Registry.find "raftos" in
  let bugs = Systems.Registry.flags_of sys [ "raftos1" ] in
  let spec = sys.spec bugs in
  let scenario = sys.table3_scenario in
  let opts =
    { Explorer.default with
      only_invariants = Some [ "MatchIndexMonotonic" ];
      time_budget = Some 120. }
  in

  Fmt.pr "1. sequential BFS...@.";
  let seq = Explorer.check spec scenario opts in
  Fmt.pr "   %a@.@." Explorer.pp_result seq;

  Fmt.pr "2. parallel BFS, 4 workers...@.";
  let par = Par.Par_explorer.check ~workers:4 spec scenario opts in
  Fmt.pr "   %a@." Explorer.pp_result par.base;
  Fmt.pr "   %a@." Par.Par_explorer.pp_worker_stats par.worker_stats;
  let agree =
    seq.distinct = par.base.distinct
    && seq.generated = par.base.generated
    && seq.max_depth = par.base.max_depth
  in
  Fmt.pr "   sequential-equivalent: %b@.@." agree;

  Fmt.pr "3. parallel simulation, fixed seed at 1 vs 4 workers...@.";
  let walk_opts = { Simulate.default with max_depth = 20 } in
  let w1 = Par.Par_simulate.walks ~workers:1 spec scenario walk_opts
             ~seed:42 ~count:16
  and w4 = Par.Par_simulate.walks ~workers:4 spec scenario walk_opts
             ~seed:42 ~count:16 in
  let same =
    List.for_all2
      (fun (a : Simulate.walk) (b : Simulate.walk) -> a.events = b.events)
      w1 w4
  in
  Fmt.pr "   16 walks, seed 42: identical at both worker counts: %b@." same;
  if not (agree && same) then exit 1
