open Sandtable

let metrics_file = "metrics.json"

(* Only coarse phases reach the trace file: per-state spans (fingerprint,
   symmetry-normalize, invariant, walk) would bloat it by orders of
   magnitude, so they aggregate into the phase timers alone. *)
let trace_phases =
  [ "expand"; "barrier-wait"; "steal-wait"; "walks"; "replay"; "checkpoint";
    "spill-io"; "shrink" ]

type t = {
  workers : int;
  t0 : float;
  collectors : Metrics.collector array;
  trace : Trace_writer.t option;
  events : Events.t option;
  profile : Profile.t;
  dir : string option;
  probe : Probe.t option;
  peak_frontier : int ref;
  layers : int ref;
}

let create ?(workers = 1) ?trace_out ?dir
    ?(telemetry = Progress.Every_states 1) () =
  let t0 = Unix.gettimeofday () in
  let workers = max 1 workers in
  Option.iter Binio.mkdir_p dir;
  (* the watermark is process-global; a fresh run must not inherit the
     phase a previous in-process run reached *)
  Envgen.reset_phase_watermark ();
  let collectors = Metrics.create_collectors ~workers in
  let profile = Profile.create ~workers in
  let trace =
    Option.map (fun path -> Trace_writer.create ~path ~t0) trace_out
  in
  let events =
    Option.map
      (fun d -> Events.create ~path:(Filename.concat d Events.file))
      dir
  in
  let telemetry = Telemetry.create ~cadence:telemetry ~t0 ~workers in
  let peak_frontier = ref 0 in
  let layers = ref 0 in
  (* out-of-range worker indices (defensive) fall back to collector 0 *)
  let coll w = collectors.(if w >= 0 && w < workers then w else 0) in
  let traced name = List.mem name trace_phases in
  let s_count ~worker name n = Metrics.add_count (coll worker) name n in
  let s_gauge ~worker name v = Metrics.set_gauge (coll worker) name v in
  let s_span ~worker name t0 t1 =
    Metrics.add_timer (coll worker) name (t1 -. t0);
    match trace with
    | Some tw when traced name ->
      Trace_writer.span tw ~tid:worker ~name ~t0 ~t1
    | _ -> ()
  in
  (* One record per barrier. Its counts and the fault-plan phase are facts
     about the exploration, identical at every worker count under the
     strict engines; the hook fires from the coordinator at the barrier,
     the quiescent point the telemetry sampler requires. *)
  let s_layer ~depth ~distinct ~generated ~frontier ~elapsed =
    incr layers;
    if frontier > !peak_frontier then peak_frontier := frontier;
    Option.iter
      (fun ev ->
        let open Store.Sjson in
        let int n = Num (float_of_int n) in
        Events.emit ev
          ([ ("type", Str "layer");
             ("layer", int !layers);
             ("depth", int depth);
             ("distinct", int distinct);
             ("generated", int generated);
             ("frontier", int frontier);
             ("fault_phase", int (Envgen.phase_watermark ()));
             ("elapsed_s", Num elapsed) ]
          @ Telemetry.sample telemetry ~layer:!layers ~collectors
              ~now:(Unix.gettimeofday ())))
      events
  in
  let s_edge ~worker ~depth ~event ~dup ~sym =
    Profile.edge profile ~worker ~depth ~event ~dup ~sym
  in
  let s_edge_fix ~worker ~depth ~event =
    Profile.fix profile ~worker ~depth ~event
  in
  let probe =
    Some (Probe.make ~worker:0
            { Probe.s_count; s_gauge; s_span; s_layer; s_edge; s_edge_fix })
  in
  { workers; t0; collectors; trace; events; profile; dir; probe;
    peak_frontier; layers }

let probe t = t.probe
let dir t = t.dir

let event t fields = Option.iter (fun ev -> Events.emit ev fields) t.events

let mark t name =
  Option.iter
    (fun tw -> Trace_writer.instant tw ~tid:0 ~name ~at:(Unix.gettimeofday ()))
    t.trace

type summary = {
  s_throughput : float;
  s_peak_frontier : int;
  s_barrier_idle_pct : float;
  s_layers : int;
  s_metrics : Metrics.summary;
  s_profile : Profile.summary;
}

(* This process's peak resident set (VmHWM), in MB; [None] where
   /proc/self/status is unreadable. The visited store lives off the OCaml
   heap, so the GC's heap figures no longer account for it. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> Some (float_of_int kb /. 1024.)
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let finish t ~outcome ?(distinct = 0) ?(generated = 0) ?(max_depth = 0)
    ~duration () =
  let m = Metrics.merge t.collectors in
  (* barrier-idle: share of worker time spent waiting — at layer barriers
     (strict BFS) or idle-stealing (work-stealing engine) — relative to
     productive phase time ("expand" for exploration, "walks" for
     simulation). 0 for sequential runs, which never wait. *)
  let busy =
    Metrics.timer_total m "expand" +. Metrics.timer_total m "walks"
  in
  let wait =
    Metrics.timer_total m "barrier-wait" +. Metrics.timer_total m "steal-wait"
  in
  let idle_pct =
    if busy +. wait <= 0. then 0. else 100. *. wait /. (busy +. wait)
  in
  let throughput = if duration > 0. then float generated /. duration else 0. in
  let profile = Profile.summarize t.profile in
  let summary =
    { s_throughput = throughput;
      s_peak_frontier = !(t.peak_frontier);
      s_barrier_idle_pct = idle_pct;
      s_layers = !(t.layers);
      s_metrics = m;
      s_profile = profile }
  in
  Option.iter (fun d -> Profile.write ~dir:d profile) t.dir;
  Option.iter
    (fun d ->
      let open Store.Sjson in
      let json =
        Obj
          ([ ("outcome", Str outcome);
            ("distinct", Num (float_of_int distinct));
            ("generated", Num (float_of_int generated));
            ("max_depth", Num (float_of_int max_depth));
            ("duration_s", Num duration);
            ("throughput_states_per_sec", Num throughput);
            ("peak_frontier", Num (float_of_int !(t.peak_frontier)));
            ("barrier_idle_pct", Num idle_pct);
            ("layers", Num (float_of_int !(t.layers))) ]
          @ (match peak_rss_mb () with
            | Some mb -> [ ("peak_rss_mb", Num mb) ]
            | None -> [])
          @ [ ("metrics", Metrics.to_json m) ])
      in
      Binio.atomic_write (Filename.concat d metrics_file) (fun oc ->
          output_string oc (to_string json)))
    t.dir;
  Option.iter
    (fun ev ->
      let open Store.Sjson in
      Events.emit ev
        [ ("type", Str "done");
          ("outcome", Str outcome);
          ("distinct", Num (float_of_int distinct));
          ("generated", Num (float_of_int generated));
          ("max_depth", Num (float_of_int max_depth));
          ("duration_s", Num duration) ];
      Events.close ev)
    t.events;
  Option.iter Trace_writer.close t.trace;
  summary
