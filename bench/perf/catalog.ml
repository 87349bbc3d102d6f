(* Every metric the benchmark reports, with its unit. BENCHMARK.json at
   the repository root declares the same names (plus direction and bound);
   [perf.exe smoke] fails if the two lists drift apart. *)

let end_to_end =
  [ ("wall_s", "s");
    ("states_per_s", "1/s");
    ("events_per_s", "1/s");
    ("ttv_s", "s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MB");
    ("setup_s", "s") ]

(* The Table-2 verification bugs sequential BFS confirms within a second,
   with the BFS depth of the counterexample each must produce. The others
   BFS confirms within 30 s (WRaft#1, RaftOS#2, Xraft-KV#1 take 3-5 s;
   PySyncObj#4, WRaft#7, RaftOS#1 about 1 s) would leave room for only two
   or three rounds in a harness run. *)
let bughunt_bugs =
  [ ("PySyncObj#2", 14); ("PySyncObj#3", 12); ("PySyncObj#5", 13); ("WRaft#4", 4);
    ("WRaft#5", 13); ("DaosRaft#1", 7); ("RaftOS#4", 13); ("Xraft#1", 10) ]

(* "Xraft-KV#1" -> "bughunt.ttv.xraft-kv-1" *)
let bug_metric id =
  match String.index_opt id '#' with
  | Some i ->
    Printf.sprintf "bughunt.ttv.%s-%s"
      (String.lowercase_ascii (String.sub id 0 i))
      (String.sub id (i + 1) (String.length id - i - 1))
  | None -> invalid_arg ("bug id without #: " ^ id)

let per_layer =
  [ ("symmetry.canonical_ns", "ns");
    ("symmetry.permute_ns", "ns");
    ("symmetry.permute_calls", "count");
    ("symmetry.share", "ratio");
    ("spec.next_ns", "ns");
    ("spec.next_calls", "count");
    ("spec.branching", "ratio");
    ("spec.invariant_ns", "ns");
    ("spec.constraint_ns", "ns");
    ("spec.observe_ns", "ns");
    ("fingerprint.ns", "ns");
    ("fingerprint.bytes", "bytes");
    ("store.add_ns", "ns");
    ("store.fresh_ratio", "ratio");
    ("store.probe_steps_per_op", "ratio");
    ("store.bytes_per_state", "bytes");
    ("explorer.residual_ns", "ns");
    ("explorer.reconcile_pct", "%");
    ("gc.minor_words_per_gen", "words");
    ("gc.promoted_words_per_gen", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("shrink.s", "s");
    ("shrink.candidates", "count");
    ("replay.confirm_s", "s") ]
  @ List.map (fun (id, _) -> (bug_metric id, "s")) bughunt_bugs
  @ [ ("impl.boot_ns", "ns");
      ("impl.execute_ns", "ns");
      ("impl.observe_ns", "ns");
      ("conform.mask_ns", "ns");
      ("conform.residual_ns", "ns");
      ("trace_overhead_pct", "%") ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer
