(* Declarative fault injection: phase-structured schedules driving
   exploration.

     dune exec examples/fault_injection.exe

   Builds a three-act schedule with the lib/faults combinators — let the
   cluster elect, isolate the leader without healing, then recover — and
   explores PySyncObj under it; then parses the same schedule from its
   s-expression form (what `--faults FILE` loads and manifests record) and
   shows that the flat budget is itself a one-phase schedule: writing that
   phase out explores the same state space. *)

open Sandtable
module Sched = Faults.Schedule

let sys = Systems.Registry.find "pysyncobj"
let spec = sys.spec (Systems.Registry.flags_of sys [])
let scenario = sys.default_scenario

let explore sc =
  let r = Explorer.check spec sc Explorer.default in
  Fmt.pr "  distinct=%d generated=%d depth=%d (%s)@." r.distinct r.generated
    r.max_depth
    (match r.outcome with
    | Explorer.Exhausted -> "exhausted"
    | Explorer.Violation v -> "violation: " ^ v.invariant
    | Explorer.Budget_spent -> "budget spent")

let apply sched =
  match Faults.Compile.apply sched scenario with
  | Ok sc -> sc
  | Error e -> Fmt.failwith "compile error: %s" e

let () =
  (* act 1: no faults until the first timeout has fired; act 2: cut the
     leader off and refuse to heal until a second timeout; act 3: auto-heal
     and allow one restart *)
  let staged =
    Sched.schedule "staged-outage"
      [ Sched.phase ~until:(Sched.after "timeouts" 1) "elect" [];
        Sched.phase ~until:(Sched.after "partitions" 1) "outage"
          [ Sched.partition ~groups:Sched.Isolate_leader 1;
            Sched.heal Sched.Never ];
        Sched.phase "recover"
          [ Sched.heal (Sched.After_trigger (Sched.after "timeouts" 3));
            Sched.restart 1 ] ]
  in
  Fmt.pr "the schedule, in the concrete syntax --faults FILE loads:@.@.%s@."
    (Sched.to_string staged);

  Fmt.pr "@.exploring pysyncobj under it:@.";
  explore (apply staged);

  (* the canonical source round-trips: manifests record exactly this
     string, so a shrink or resume rebuilds the same compiled plan *)
  let reparsed =
    match Sched.parse (Sched.to_string staged) with
    | Ok s -> s
    | Error e -> Fmt.failwith "reparse error: %s" e
  in
  Fmt.pr "@.reparsed from its own source:@.";
  explore (apply reparsed);

  (* without a schedule the flat budget is one: a single phase with its
     crash, restart, partition, drop and dup caps, any node or link, every
     proper group and auto-heal *)
  let cap key ~default = Scenario.budget_get scenario.budget key ~default in
  let budget_schedule =
    Sched.schedule "budget"
      [ Sched.phase "budget"
          [ Sched.crash (cap "crashes" ~default:1);
            Sched.restart (cap "restarts" ~default:1);
            Sched.partition (cap "partitions" ~default:1);
            Sched.drop (cap "drops" ~default:0);
            Sched.dup (cap "dups" ~default:0) ] ]
  in
  Fmt.pr "@.flat budget, no schedule:@.";
  explore scenario;
  Fmt.pr "@.the same budget written out as a schedule:@.@.%s@."
    (Sched.to_string budget_schedule);
  let planned = apply budget_schedule in
  Fmt.pr "  lowers to the budget's own phase: %b@."
    ((Option.get planned.faults).pl_phases
    = [ Fault_plan.budget_phase scenario.budget ]);
  explore planned
