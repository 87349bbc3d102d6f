(* The machine-speed yardstick end-to-end times are scaled by.

   The baseline host's speed drifts with its other tenants by up to 50%,
   for minutes at a time, on both vCPUs at once; CPU time tracks wall
   time and no steal time is reported, so the slowdown cannot be
   subtracted, and two sets of runs minutes apart differed by 30% in raw
   time. The parent therefore runs this fixed kernel, each time in a child
   of its own, before the first repetition and after every repetition,
   and scales the repetition's times by [reference_s] over the mean of the
   two kernel times around it.

   The kernel calls no library of this repository, so a change under test
   cannot move it, and it fixes the GC parameters it depends on, so a
   library initialiser that changes them cannot either. Its work —
   hash-table inserts over a table of a few megabytes, list allocation,
   minor collections — is the kind the workloads do. *)

(* About the kernel's time on the baseline machine when the host is
   quiet, so scaled times read as seconds on that machine. *)
let reference_s = 0.11

let kernel () =
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = Tracer.now_ns () in
  let table = Hashtbl.create 16 in
  let lists = ref [] in
  for i = 0 to 400_000 do
    let k = (i * 2654435761) land 0xFFFFFF in
    Hashtbl.replace table k i;
    if i land 7 = 0 then lists := [ i; k ] :: !lists
  done;
  ignore (Sys.opaque_identity (Hashtbl.length table, List.length !lists));
  float (Tracer.now_ns () - t0) *. 1e-9
