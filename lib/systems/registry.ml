type paper_row = {
  stars : string;
  impl_loc : string;
  spec_loc : int;
  vars : int;
  acts : int;
  invs : int;
  effort_spec : int;
  effort_conf : int;
}

type table4_row = {
  t4_trace_depth : string;
  t4_avg_depth : int;
  t4_spec_ms : float;
  t4_impl_ms : float;
  t4_speedup : int;
}

type t = {
  name : string;
  semantics : Sandtable.Spec_net.semantics;
  spec : Bug.Flags.t -> Sandtable.Spec.t;
  sut :
    Bug.Flags.t -> Engine.Cost.profile option -> Sandtable.Scenario.t ->
    Sandtable.Conformance.sut;
  bundle : Bug.Flags.t -> Sandtable.Scenario.t -> Sandtable.Workflow.bundle;
  boot_impl : Bug.Flags.t -> Engine.Syscall.boot;
  timeouts : (string * int) list;
  default_scenario : Sandtable.Scenario.t;
  table3_scenario : Sandtable.Scenario.t;
  cost_profile : Engine.Cost.profile;
  bugs : Bug.info list;
  all_flags : string list;
  fault_schedules : (string * Faults.Schedule.t) list;
  spec_file : string;
  paper : paper_row;
  paper_t4 : table4_row;
}

let scenario3 name budget =
  Sandtable.Scenario.v ~name ~nodes:3 ~workload:[ 1; 2 ] budget

(* --- named fault schedules ---------------------------------------------
   One per system, sized for its default cluster shape. Each exercises a
   different corner of the schedule language; all are non-noop (checked by
   the CI fault matrix). *)

module Sched = Faults.Schedule

(* let a leader emerge, wall it off without healing, then recover *)
let leader_partition =
  Sched.schedule "leader-partition"
    [ Sched.phase ~until:(Sched.after "timeouts" 1) "quiet" [];
      Sched.phase ~until:(Sched.after "partitions" 1) "split"
        [ Sched.partition ~groups:Sched.Isolate_leader 1;
          Sched.heal Sched.Never ];
      Sched.phase "recover"
        [ Sched.heal (Sched.After_trigger (Sched.after "timeouts" 3)) ] ]

(* leader-sourced UDP loss plus a duplicated packet *)
let packet_storm =
  Sched.schedule "packet-storm"
    [ Sched.phase "storm"
        [ Sched.drop ~src:Sched.Leader 2; Sched.dup 1 ] ]

(* repeated crash/restart churn, sampled to two candidate nodes per state *)
let crash_storm =
  Sched.schedule ~seed:5 "crash-storm"
    [ Sched.phase ~until:(Sched.after "crashes" 2) "churn"
        [ Sched.crash ~sample:2 2; Sched.restart 2 ];
      Sched.phase "settle" [ Sched.restart 2 ] ]

(* one partition with a counter-triggered heal window *)
let partition_heal =
  Sched.schedule "partition-heal"
    [ Sched.phase "cut"
        [ Sched.partition 1;
          Sched.heal (Sched.After_trigger (Sched.after "timeouts" 2)) ] ]

(* follower-directed duplication flood with a single drop *)
let dup_flood =
  Sched.schedule "dup-flood"
    [ Sched.phase "flood"
        [ Sched.dup ~dst:Sched.Followers 2; Sched.drop 1 ] ]

(* kill whoever leads, then allow it back *)
let leader_crash =
  Sched.schedule "leader-crash"
    [ Sched.phase ~until:(Sched.after "crashes" 1) "kill"
        [ Sched.crash ~sel:Sched.Leader 1 ];
      Sched.phase "return" [ Sched.restart ~sel:(Sched.Picked [ 0; 1; 2 ]) 1 ] ]

(* skewed virtual clocks plus an explicit two-sided cut *)
let skewed_clock =
  Sched.schedule ~skew:[ 1, 40; 2, 80 ] "skewed-clock"
    [ Sched.phase "skewed"
        [ Sched.partition ~groups:(Sched.Explicit [ [ 0; 1 ] ]) 1 ] ]

(* majority/minority split that never heals on its own *)
let split_brain =
  Sched.schedule "split-brain"
    [ Sched.phase ~until:(Sched.after "partitions" 1) "cut"
        [ Sched.partition ~groups:(Sched.Explicit [ [ 0; 1 ] ]) 1;
          Sched.heal Sched.Never ];
      Sched.phase "stuck"
        [ Sched.heal (Sched.After_trigger (Sched.after "timeouts" 3)) ] ]

(* Experiment #1 budgets (§5.2): timeouts and buffers reduced to 3–4 so the
   space is exhaustible within the harness' time budget. *)
let t3_raft name =
  scenario3 (name ^ "-t3")
    [ "timeouts", 3; "requests", 2; "crashes", 1; "restarts", 1;
      "partitions", 1; "buffer", 3 ]

let t3_udp name =
  scenario3 (name ^ "-t3")
    [ "timeouts", 3; "requests", 2; "crashes", 1; "restarts", 1;
      "partitions", 1; "drops", 1; "dups", 1; "buffer", 3 ]

let pysyncobj =
  { name = "pysyncobj";
    semantics = Pysyncobj.semantics;
    spec = (fun bugs -> Pysyncobj.spec ~bugs ());
    sut = (fun bugs cost sc -> Pysyncobj.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Pysyncobj.bundle ~bugs sc);
    boot_impl = (fun bugs -> Pysyncobj.boot ~bugs ());
    timeouts = Pysyncobj.timeouts;
    default_scenario = Pysyncobj.default_scenario;
    table3_scenario = t3_raft "pysyncobj";
    cost_profile = Pysyncobj.cost_profile;
    bugs = Pysyncobj.bugs;
    all_flags = Pysyncobj.all_flags;
    fault_schedules = [ "leader-partition", leader_partition ];
    spec_file = "lib/systems/pysyncobj_spec.ml";
    paper =
      { stars = "658"; impl_loc = "4.6K"; spec_loc = 490; vars = 12; acts = 9;
        invs = 13; effort_spec = 14; effort_conf = 15 };
    paper_t4 =
      { t4_trace_depth = "9-54"; t4_avg_depth = 40; t4_spec_ms = 14.18;
        t4_impl_ms = 1798.53; t4_speedup = 127 } }

let wraft =
  { name = "wraft";
    semantics = Wraft.semantics;
    spec = (fun bugs -> Wraft.spec ~bugs ());
    sut = (fun bugs cost sc -> Wraft.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Wraft.bundle ~bugs sc);
    boot_impl = (fun bugs -> Wraft.boot ~bugs ());
    timeouts = Wraft.timeouts;
    default_scenario = Wraft.default_scenario;
    table3_scenario = t3_udp "wraft";
    cost_profile = Wraft.cost_profile;
    bugs = Wraft.bugs;
    all_flags = Wraft.all_flags;
    fault_schedules = [ "packet-storm", packet_storm ];
    spec_file = "lib/systems/wraft_family.ml";
    paper =
      { stars = "1.0K"; impl_loc = "3.4K"; spec_loc = 879; vars = 14;
        acts = 15; invs = 13; effort_spec = 14; effort_conf = 3 };
    paper_t4 =
      { t4_trace_depth = "13-60"; t4_avg_depth = 47; t4_spec_ms = 20.70;
        t4_impl_ms = 2496.53; t4_speedup = 121 } }

let redisraft =
  { name = "redisraft";
    semantics = Redisraft.semantics;
    spec = (fun bugs -> Redisraft.spec ~bugs ());
    sut = (fun bugs cost sc -> Redisraft.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Redisraft.bundle ~bugs sc);
    boot_impl = (fun bugs -> Redisraft.boot ~bugs ());
    timeouts = Redisraft.timeouts;
    default_scenario = Redisraft.default_scenario;
    table3_scenario = t3_raft "redisraft";
    cost_profile = Redisraft.cost_profile;
    bugs = Redisraft.bugs;
    all_flags = Redisraft.all_flags;
    fault_schedules = [ "crash-storm", crash_storm ];
    spec_file = "lib/systems/wraft_family.ml";
    paper =
      { stars = "766"; impl_loc = "5.3K"; spec_loc = 600; vars = 14; acts = 9;
        invs = 15; effort_spec = 7; effort_conf = 5 };
    paper_t4 =
      { t4_trace_depth = "10-78"; t4_avg_depth = 45; t4_spec_ms = 15.87;
        t4_impl_ms = 1802.40; t4_speedup = 114 } }

let daosraft =
  { name = "daosraft";
    semantics = Daosraft.semantics;
    spec = (fun bugs -> Daosraft.spec ~bugs ());
    sut = (fun bugs cost sc -> Daosraft.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Daosraft.bundle ~bugs sc);
    boot_impl = (fun bugs -> Daosraft.boot ~bugs ());
    timeouts = Daosraft.timeouts;
    default_scenario = Daosraft.default_scenario;
    table3_scenario = t3_raft "daosraft";
    cost_profile = Daosraft.cost_profile;
    bugs = Daosraft.bugs;
    all_flags = Daosraft.all_flags;
    fault_schedules = [ "partition-heal", partition_heal ];
    spec_file = "lib/systems/wraft_family.ml";
    paper =
      { stars = "596"; impl_loc = "3.5K"; spec_loc = 584; vars = 13; acts = 9;
        invs = 14; effort_spec = 3; effort_conf = 3 };
    paper_t4 =
      { t4_trace_depth = "11-64"; t4_avg_depth = 48; t4_spec_ms = 11.96;
        t4_impl_ms = 2115.82; t4_speedup = 177 } }

let raftos =
  { name = "raftos";
    semantics = Raftos.semantics;
    spec = (fun bugs -> Raftos.spec ~bugs ());
    sut = (fun bugs cost sc -> Raftos.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Raftos.bundle ~bugs sc);
    boot_impl = (fun bugs -> Raftos.boot ~bugs ());
    timeouts = Raftos.timeouts;
    default_scenario = Raftos.default_scenario;
    table3_scenario = t3_udp "raftos";
    cost_profile = Raftos.cost_profile;
    bugs = Raftos.bugs;
    all_flags = Raftos.all_flags;
    fault_schedules = [ "dup-flood", dup_flood ];
    spec_file = "lib/systems/raftos_spec.ml";
    paper =
      { stars = "339"; impl_loc = "1.3K"; spec_loc = 610; vars = 12; acts = 9;
        invs = 13; effort_spec = 17; effort_conf = 3 };
    paper_t4 =
      { t4_trace_depth = "10-44"; t4_avg_depth = 31; t4_spec_ms = 5.83;
        t4_impl_ms = 4813.74; t4_speedup = 825 } }

let xraft =
  { name = "xraft";
    semantics = Xraft.semantics;
    spec = (fun bugs -> Xraft.spec ~bugs ());
    sut = (fun bugs cost sc -> Xraft.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Xraft.bundle ~bugs sc);
    boot_impl = (fun bugs -> Xraft.boot ~bugs ());
    timeouts = Xraft.timeouts;
    default_scenario = Xraft.default_scenario;
    table3_scenario = t3_raft "xraft";
    cost_profile = Xraft.cost_profile;
    bugs = Xraft.bugs;
    all_flags = Xraft.all_flags;
    fault_schedules = [ "leader-crash", leader_crash ];
    spec_file = "lib/systems/xraft_family.ml";
    paper =
      { stars = "219"; impl_loc = "6.7K"; spec_loc = 605; vars = 14;
        acts = 11; invs = 15; effort_spec = 2; effort_conf = 1 };
    paper_t4 =
      { t4_trace_depth = "21-49"; t4_avg_depth = 38; t4_spec_ms = 8.14;
        t4_impl_ms = 24338.57; t4_speedup = 2989 } }

let xraft_kv =
  { name = "xraft-kv";
    semantics = Xraft_kv.semantics;
    spec = (fun bugs -> Xraft_kv.spec ~bugs ());
    sut = (fun bugs cost sc -> Xraft_kv.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Xraft_kv.bundle ~bugs sc);
    boot_impl = (fun bugs -> Xraft_kv.boot ~bugs ());
    timeouts = Xraft_kv.timeouts;
    default_scenario = Xraft_kv.default_scenario;
    table3_scenario =
      scenario3 "xraft-kv-t3"
        [ "timeouts", 3; "requests", 2; "crashes", 0; "restarts", 0;
          "partitions", 1; "buffer", 3 ];
    cost_profile = Xraft_kv.cost_profile;
    bugs = Xraft_kv.bugs;
    all_flags = Xraft_kv.all_flags;
    fault_schedules = [ "skewed-clock", skewed_clock ];
    spec_file = "lib/systems/xraft_family.ml";
    paper =
      { stars = "219"; impl_loc = "7.9K"; spec_loc = 618; vars = 18;
        acts = 10; invs = 18; effort_spec = 2; effort_conf = 1 };
    paper_t4 =
      { t4_trace_depth = "7-51"; t4_avg_depth = 35; t4_spec_ms = 8.64;
        t4_impl_ms = 24032.17; t4_speedup = 2781 } }

let zookeeper =
  { name = "zookeeper";
    semantics = Zookeeper.semantics;
    spec = (fun bugs -> Zookeeper.spec ~bugs ());
    sut = (fun bugs cost sc -> Zookeeper.sut ~bugs ?cost sc);
    bundle = (fun bugs sc -> Zookeeper.bundle ~bugs sc);
    boot_impl = (fun bugs -> Zookeeper.boot ~bugs ());
    timeouts = Zookeeper.timeouts;
    default_scenario = Zookeeper.default_scenario;
    table3_scenario =
      scenario3 "zookeeper-t3"
        [ "timeouts", 3; "requests", 2; "crashes", 1; "restarts", 1;
          "partitions", 1; "buffer", 4 ];
    cost_profile = Zookeeper.cost_profile;
    bugs = Zookeeper.bugs;
    all_flags = Zookeeper.all_flags;
    fault_schedules = [ "split-brain", split_brain ];
    spec_file = "lib/systems/zookeeper_spec.ml";
    paper =
      { stars = "11.6K"; impl_loc = "11.8K"; spec_loc = 2037; vars = 39;
        acts = 20; invs = 15; effort_spec = 7; effort_conf = 7 };
    paper_t4 =
      { t4_trace_depth = "16-59"; t4_avg_depth = 46; t4_spec_ms = 17.14;
        t4_impl_ms = 28441.65; t4_speedup = 1660 } }

let all =
  [ pysyncobj; wraft; redisraft; daosraft; raftos; xraft; xraft_kv; zookeeper ]

let find name = List.find (fun s -> String.equal s.name name) all
let names = List.map (fun s -> s.name) all

let schedule_of sys name =
  List.assoc_opt name sys.fault_schedules

let flags_of sys ids =
  let resolve id =
    if List.mem id sys.all_flags then [ id ]
    else
      match List.find_opt (fun (b : Bug.info) -> b.id = id) sys.bugs with
      | Some b -> b.flags
      | None -> invalid_arg ("unknown bug or flag: " ^ id)
  in
  Bug.flags (List.concat_map resolve ids)

let measured_spec_loc sys =
  match open_in sys.spec_file with
  | exception Sys_error _ -> None
  | ic ->
    let count = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr count
       done
     with End_of_file -> ());
    close_in ic;
    Some !count

let measured_invariants sys =
  let (module S : Sandtable.Spec.S) = sys.spec Bug.Flags.empty in
  List.length S.invariants
