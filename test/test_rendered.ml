(* Rendered counterexamples, byte for byte. For each bug the benchmark
   hunts (bench/perf's bughunt workload), the BFS counterexample and its
   Shrink.run minimization as trace.txt renders them — labels included —
   must equal the text in bughunt_traces.expected, which was captured while
   deliveries still carried their descriptor. Labels are now rendered from
   the state each event leaves, so this pins that rendering, the
   re-addressing that depends on it, and the shrinker's candidate count. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

let bugs =
  [ "PySyncObj#2"; "PySyncObj#3"; "PySyncObj#5"; "WRaft#4"; "WRaft#5";
    "DaosRaft#1"; "RaftOS#4"; "Xraft#1" ]

let find_bug id =
  List.find_map
    (fun (sys : R.t) ->
      List.find_opt (fun (b : Bug.info) -> String.equal b.id id) sys.bugs
      |> Option.map (fun b -> (sys, b)))
    R.all
  |> Option.get

let text events labels =
  String.concat ""
    (List.map2 (fun e label -> Trace.serialize_event ~label e ^ "\n") events
       labels)

(* the same sections, in the same format, as the expected file *)
let render id =
  let sys, info = find_bug id in
  let spec = sys.R.spec (Bug.flags info.flags) in
  let inv = Option.get info.invariant in
  let opts = { Explorer.default with only_invariants = Some [ inv ] } in
  match (Explorer.check spec info.scenario opts).outcome with
  | Explorer.Violation v ->
    let sh = Shrink.run spec info.scenario (Shrink.Invariant inv) v.events in
    Printf.sprintf "== %s trace %s %d\n%s== %s minimized %d\n%s" id inv v.depth
      (text v.events v.labels) id sh.tried
      (text sh.minimized sh.labels)
  | _ -> Alcotest.failf "%s: no violation" id

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_bughunt_traces () =
  Alcotest.(check string) "rendered traces"
    (read_file "bughunt_traces.expected")
    (String.concat "" (List.map render bugs))

let suite =
  ( "rendered",
    [ Alcotest.test_case "bughunt traces byte-identical" `Slow
        test_bughunt_traces ] )
