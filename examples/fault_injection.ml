(* Declarative fault injection: phase-structured schedules driving
   exploration.

     dune exec examples/fault_injection.exe

   Builds a three-act schedule with the lib/faults combinators — let the
   cluster elect, isolate the leader without healing, then recover — and
   explores PySyncObj under it; then parses the same schedule from its
   s-expression form (what `--faults FILE` loads and manifests record) and
   shows that the budget-equivalent schedule reproduces the legacy state
   space exactly. *)

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

  (* a schedule that encodes the scenario's flat fault budget explores the
     legacy state space event-for-event *)
  Fmt.pr "@.flat budget, no schedule:@.";
  explore scenario;
  Fmt.pr "@.budget-equivalent schedule (Schedule.of_budget):@.";
  explore (apply (Sched.of_budget scenario.budget))
