(* Checkpoint / resume: survive a crash mid-exploration and still get the
   exact counterexample the uninterrupted run would have found.

     dune exec examples/checkpoint_resume.exe

   1. model-check a buggy PySyncObj spec with lib/store checkpointing every
      layer into a run directory,
   2. "crash" the run partway through (here: a depth budget stands in for
      kill -9 — a real crash can only be cleaner, since checkpoints are
      atomic),
   3. resume from the run directory's checkpoint with no budget and recover
      the minimal-depth counterexample,
   4. verify the result is bit-for-bit what an uninterrupted run reports. *)

open Sandtable

let () =
  let bugs = Systems.Bug.flags [ "pso4" ] in
  let spec = Systems.Pysyncobj.spec ~bugs () in
  let scenario = Systems.Pysyncobj.default_scenario in
  let opts =
    { Explorer.default with
      only_invariants = Some [ "MatchIndexMonotonic" ] }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sandtable-example-%d" (Unix.getpid ()))
  in
  let identity = Store.Checkpoint.identity spec scenario opts in

  Fmt.pr "1. exploring with a checkpoint at every BFS layer barrier...@.";
  let interrupted =
    Explorer.check spec scenario
      { opts with
        max_depth = Some 12 (* the "crash" *);
        on_layer =
          Some
            (Store.Checkpoint.hook ~dir ~identity ~every:1
               ~on_save:(fun st ->
                 Fmt.pr "   checkpoint: depth %d, %d states, %d bytes@."
                   st.ck_depth st.ck_distinct st.ck_bytes)
               ()) }
  in
  Fmt.pr "   crashed mid-run: %a@.@." Explorer.pp_result interrupted;

  Fmt.pr "2. resuming from %s...@." dir;
  let snapshot = Store.Checkpoint.load ~dir ~identity in
  Fmt.pr "   checkpoint holds depth %d, %d distinct states@."
    snapshot.Explorer.snap_depth snapshot.Explorer.snap_distinct;
  let resumed = Explorer.check ~resume:snapshot spec scenario opts in
  Fmt.pr "   %a@.@." Explorer.pp_result resumed;

  (match resumed.outcome with
  | Explorer.Violation v ->
    Fmt.pr "3. recovered counterexample (%s at depth %d):@." v.invariant
      v.depth;
    List.iteri
      (fun i (e, label) ->
        Fmt.pr "   %2d. %a@." (i + 1) (Trace.pp_labelled_event label) e)
      (List.combine v.events v.labels)
  | _ -> Fmt.pr "3. no violation?! (unexpected)@.");

  Fmt.pr "@.4. checking against an uninterrupted run...@.";
  let full = Explorer.check spec scenario opts in
  let agree =
    match full.outcome, resumed.outcome with
    | Explorer.Violation a, Explorer.Violation b ->
      a.invariant = b.invariant && a.depth = b.depth
      && List.length a.events = List.length b.events
      && List.for_all2 Trace.equal_event a.events b.events
      && full.distinct = resumed.distinct
      && full.generated = resumed.generated
    | _ -> false
  in
  Fmt.pr "   uninterrupted: %a@." Explorer.pp_result full;
  Fmt.pr "   bit-for-bit identical: %b@." agree;

  (* tidy the run directory *)
  (try Sys.remove (Filename.concat dir Store.Checkpoint.file)
   with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if not agree then exit 1
