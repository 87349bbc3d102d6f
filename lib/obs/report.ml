(* The [sandtable stats <run-dir>] reader: summarize the artefacts a run
   directory holds — manifest.json, metrics.json, events.ndjsonl,
   profile.json. Each is optional (a live or killed run has written
   neither metrics nor profile yet), but one that is present must decode:
   a bad artefact fails the load, naming it. Also the run-vs-run
   comparison behind [stats --compare] and the live tail of the layer
   records behind [stats --follow]. *)

type t = {
  rp_dir : string;
  rp_manifest : Store.Manifest.t option;
  rp_metrics : Store.Sjson.t option;
  rp_events : Store.Sjson.t list option;
  rp_profile : Profile.summary option;
}

let read_json path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | raw ->
    Result.map_error (Printf.sprintf "%s: %s" path) (Store.Sjson.of_string raw)

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else begin
    let ( let* ) = Result.bind in
    let artefact file read =
      let path = Filename.concat dir file in
      if Sys.file_exists path then Result.map Option.some (read path)
      else Ok None
    in
    let* manifest =
      artefact Store.Manifest.file (fun _ -> Store.Manifest.load ~dir)
    in
    let* metrics = artefact Run.metrics_file read_json in
    let* events = artefact Events.file Events.read_all in
    let* profile = artefact Profile.file (fun _ -> Profile.load ~dir) in
    match (manifest, metrics, events) with
    | None, None, None ->
      Error
        (Printf.sprintf
           "%s: no %s, %s or %s — not a run directory" dir
           Store.Manifest.file Run.metrics_file Events.file)
    | _ ->
      Ok { rp_dir = dir; rp_manifest = manifest; rp_metrics = metrics;
           rp_events = events; rp_profile = profile }
  end

let num j name = Option.bind (Store.Sjson.member name j) Store.Sjson.to_num
let str j name = Option.bind (Store.Sjson.member name j) Store.Sjson.to_str

let event_type j = match str j "type" with Some t -> t | None -> ""

let pp_events ppf records =
  let of_type t = List.filter (fun r -> event_type r = t) records in
  let layers = of_type "layer" in
  Fmt.pf ppf "events: %d records (%d layers, %d checkpoints%s)@,"
    (List.length records) (List.length layers)
    (List.length (of_type "checkpoint"))
    (if of_type "violation" <> [] then ", violation recorded" else "");
  (match List.rev layers with
  | last :: _ ->
    let get name = Option.value ~default:0. (num last name) in
    Fmt.pf ppf "last layer: depth %.0f, %.0f distinct, frontier %.0f@,"
      (get "depth") (get "distinct") (get "frontier")
  | [] -> ());
  (* the barriers [--telemetry-every] selected carry the per-worker split *)
  let samples =
    List.filter (fun r -> Store.Sjson.member "workers" r <> None) layers
  in
  Fmt.pf ppf "telemetry: %d sampled layers@," (List.length samples);
  match List.rev samples with
  | last :: _ ->
    let get name = Option.value ~default:0. (num last name) in
    Fmt.pf ppf
      "last sample: layer %.0f, frontier %.0f, heap %.1f MW, fault phase \
       %.0f@,"
      (get "layer") (get "frontier")
      (get "heap_words" /. 1_000_000.)
      (get "fault_phase")
  | [] -> ()

(* A cumulative counter out of metrics.json ("metrics" -> "counters"),
   summed across workers by Metrics at write time. *)
let metrics_counter m name =
  Option.bind (Store.Sjson.member "metrics" m) (fun mj ->
      Option.bind (Store.Sjson.member "counters" mj) (fun cj ->
          Option.bind (Store.Sjson.member name cj) Store.Sjson.to_num))

(* A gauge's last (or peak, [~field:"max"]) value out of metrics.json
   ("metrics" -> "gauges"). *)
let metrics_gauge ?(field = "last") m name =
  Option.bind (Store.Sjson.member "metrics" m) (fun mj ->
      Option.bind (Store.Sjson.member "gauges" mj) (fun gj ->
          Option.bind (Store.Sjson.member name gj) (fun g -> num g field)))

let pp_metrics ppf m =
  let fnum name = Option.value ~default:0. (num m name) in
  Fmt.pf ppf "throughput: %.0f states/s@," (fnum "throughput_states_per_sec");
  Fmt.pf ppf "peak frontier: %.0f, layers: %.0f, barrier idle: %.1f%%@,"
    (fnum "peak_frontier") (fnum "layers") (fnum "barrier_idle_pct");
  (match metrics_counter m "steal.count" with
  | Some steals ->
    Fmt.pf ppf "steals: %.0f (%.0f failed attempts)@," steals
      (Option.value ~default:0. (metrics_counter m "steal.failed"))
  | None -> ());
  Option.iter
    (fun r ->
      Fmt.pf ppf "orbit cache: %.1f%% of canonicalising arrivals recalled@,"
        (100. *. r))
    (metrics_gauge m "symmetry.cache_hit_ratio");
  Option.iter (Fmt.pf ppf "peak RSS: %.1f MB@,") (num m "peak_rss_mb");
  (match
     ( metrics_gauge m "visited.entries",
       metrics_gauge m "visited.store_bytes",
       metrics_gauge m "visited.bytes_per_state" )
   with
  | Some entries, Some bytes, Some per_state ->
    Fmt.pf ppf "visited store: %.0f entries, %.1f MB off-heap, %.1f B/state@,"
      entries (bytes /. 1_048_576.) per_state
  | _ -> ());
  Option.iter
    (fun resident ->
      Fmt.pf ppf "frontier: peak %.0f entries, %.1f MB resident, %.1f MB \
                  spilled@,"
        (fnum "peak_frontier") (resident /. 1_048_576.)
        (Option.value ~default:0.
           (metrics_gauge ~field:"max" m "frontier.spilled_bytes")
         /. 1_048_576.))
    (metrics_gauge ~field:"max" m "frontier.bytes");
  match
    Option.bind (Store.Sjson.member "metrics" m) (Store.Sjson.member "timers")
  with
  | Some (Store.Sjson.Obj timers) when timers <> [] ->
    Fmt.pf ppf "phases:@,";
    List.iter
      (fun (name, tj) ->
        let total = Option.value ~default:0. (num tj "total_s") in
        let count = Option.value ~default:0. (num tj "count") in
        Fmt.pf ppf "  %-20s %8.3fs  (%.0f spans)@," name total count)
      timers
  | _ -> ()

let pp ppf r =
  Fmt.pf ppf "@[<v>%s@," r.rp_dir;
  Option.iter (Fmt.pf ppf "%a@," Store.Manifest.pp) r.rp_manifest;
  (match r.rp_metrics with
  | Some m -> pp_metrics ppf m
  | None -> Fmt.pf ppf "no metrics recorded (the run has not finished)@,");
  Option.iter (Profile.pp ppf) r.rp_profile;
  Option.iter (pp_events ppf) r.rp_events;
  Fmt.pf ppf "@]"

(* --- stats --compare --------------------------------------------------- *)

type cmp_row = { cr_label : string; cr_a : float option; cr_b : float option }

type comparison = {
  cmp_a : string;
  cmp_b : string;
  cmp_scalars : cmp_row list;
  cmp_events : cmp_row list;  (** duplicate hits per attribution key *)
  cmp_depths : cmp_row list;  (** distinct states per depth *)
  cmp_rate_drop_pct : float option;
      (** how much slower B ran than A, percent (negative = faster) *)
  cmp_dup_rise_pp : float option;
      (** B's duplicate ratio minus A's, percentage points *)
  cmp_rate_refusals : string list;
      (** one message per run whose throughput no gate may judge *)
}

let throughput_of r =
  match Option.bind r.rp_metrics (fun m -> num m "throughput_states_per_sec")
  with
  | Some t when t > 0. -> Some t
  | _ -> None

let dup_ratio (p : Profile.summary) =
  if p.Profile.p_generated > 0 then
    Some (100. *. float p.Profile.p_duplicates /. float p.Profile.p_generated)
  else None

(* Align two labelled series on the union of their keys, preserving A's
   order and appending B-only keys — so a key present in only one run
   still shows, with a hole on the other side. *)
let align a b =
  let labels =
    List.map fst a
    @ List.filter_map
        (fun (l, _) -> if List.mem_assoc l a then None else Some l)
        b
  in
  List.map
    (fun l -> { cr_label = l; cr_a = List.assoc_opt l a;
                cr_b = List.assoc_opt l b })
    labels

let compare_runs a b =
  match (load a, load b) with
  | Error e, _ | _, Error e -> Error e
  | Ok ra, Ok rb ->
    let pa = ra.rp_profile and pb = rb.rp_profile in
    let pnum f = function Some p -> Some (f p) | None -> None in
    let scalar label fa fb = { cr_label = label; cr_a = fa; cr_b = fb } in
    let pint f = pnum (fun p -> float (f p)) in
    let scalars =
      [ scalar "states/s" (throughput_of ra) (throughput_of rb);
        scalar "distinct"
          (pint (fun p -> p.Profile.p_distinct) pa)
          (pint (fun p -> p.Profile.p_distinct) pb);
        scalar "generated"
          (pint (fun p -> p.Profile.p_generated) pa)
          (pint (fun p -> p.Profile.p_generated) pb);
        scalar "duplicates"
          (pint (fun p -> p.Profile.p_duplicates) pa)
          (pint (fun p -> p.Profile.p_duplicates) pb);
        scalar "dup ratio %"
          (Option.bind pa dup_ratio)
          (Option.bind pb dup_ratio);
        scalar "peak worker skew %"
          (pnum (fun p -> p.Profile.p_peak_worker_skew_pct) pa)
          (pnum (fun p -> p.Profile.p_peak_worker_skew_pct) pb) ]
      @
      (* steal counters exist only for work-stealing runs; omit the rows
         entirely when neither side recorded them *)
      let steal name =
        let get r = Option.bind r.rp_metrics (fun m -> metrics_counter m name)
        in
        (get ra, get rb)
      in
      match (steal "steal.count", steal "steal.failed") with
      | (None, None), (None, None) -> []
      | (ca, cb), (fa, fb) ->
        [ scalar "steals" ca cb; scalar "steals failed" fa fb ]
    in
    (* a run with more workers than cores measures the OS scheduler, not
       the engine; a run without a manifest cannot say how many it had *)
    let rate_refusals =
      List.filter_map
        (fun (label, r) ->
          match r.rp_manifest with
          | None ->
            Some
              (Printf.sprintf "%s=%s has no %s (cores unknown)" label
                 r.rp_dir Store.Manifest.file)
          | Some m when m.Store.Manifest.m_cores < m.Store.Manifest.m_workers
            ->
            Some
              (Printf.sprintf
                 "%s=%s ran %d workers on %d cores (oversubscribed)" label
                 r.rp_dir m.Store.Manifest.m_workers
                 m.Store.Manifest.m_cores)
          | Some _ -> None)
        [ ("A", ra); ("B", rb) ]
    in
    let events p =
      match p with
      | None -> []
      | Some p ->
        List.map
          (fun (r : Profile.event_row) ->
            (r.Profile.pe_key, float r.Profile.pe_duplicates))
          p.Profile.p_by_event
    in
    let depths p =
      match p with
      | None -> []
      | Some p ->
        List.map
          (fun (r : Profile.depth_row) ->
            ( Printf.sprintf "depth %d" r.Profile.pd_depth,
              float (r.Profile.pd_roots + r.Profile.pd_generated
                     - r.Profile.pd_duplicates) ))
          p.Profile.p_by_depth
    in
    let rate_drop =
      match (throughput_of ra, throughput_of rb) with
      | Some ta, Some tb -> Some (100. *. (ta -. tb) /. ta)
      | _ -> None
    in
    let dup_rise =
      match (Option.bind pa dup_ratio, Option.bind pb dup_ratio) with
      | Some da, Some db -> Some (db -. da)
      | _ -> None
    in
    Ok
      { cmp_a = a;
        cmp_b = b;
        cmp_scalars = scalars;
        cmp_events = align (events pa) (events pb);
        cmp_depths = align (depths pa) (depths pb);
        cmp_rate_drop_pct = rate_drop;
        cmp_dup_rise_pp = dup_rise;
        cmp_rate_refusals = rate_refusals }

let pp_cell ppf = function
  | None -> Fmt.pf ppf "%12s" "-"
  | Some v ->
    if Float.is_integer v && Float.abs v < 1e12 then Fmt.pf ppf "%12.0f" v
    else Fmt.pf ppf "%12.1f" v

let pp_delta ppf (row : cmp_row) =
  match (row.cr_a, row.cr_b) with
  | Some a, Some b when a <> 0. ->
    Fmt.pf ppf "%+9.1f%%" (100. *. (b -. a) /. a)
  | Some _, Some _ -> Fmt.pf ppf "%10s" "-"
  | _ -> Fmt.pf ppf "%10s" "-"

let pp_rows ppf rows =
  List.iter
    (fun row ->
      Fmt.pf ppf "  %-22s %a %a %a@," row.cr_label pp_cell row.cr_a pp_cell
        row.cr_b pp_delta row)
    rows

let pp_comparison ppf c =
  Fmt.pf ppf "@[<v>comparing A=%s B=%s@," c.cmp_a c.cmp_b;
  Fmt.pf ppf "  %-22s %12s %12s %10s@," "" "A" "B" "delta";
  pp_rows ppf c.cmp_scalars;
  List.iter
    (fun msg -> Fmt.pf ppf "note: %s@," msg)
    c.cmp_rate_refusals;
  if c.cmp_events <> [] then begin
    Fmt.pf ppf "duplicate hits by event:@,";
    pp_rows ppf c.cmp_events
  end;
  if c.cmp_depths <> [] then begin
    Fmt.pf ppf "distinct states by depth:@,";
    pp_rows ppf c.cmp_depths
  end;
  Fmt.pf ppf "@]"

let regressions ?fail_rate_pct ?fail_dup_pp c =
  let rate =
    match (fail_rate_pct, c.cmp_rate_refusals) with
    | Some _, (_ :: _ as over) ->
      List.map
        (Printf.sprintf "refusing to gate throughput: %s")
        over
    | _ -> (
      match (fail_rate_pct, c.cmp_rate_drop_pct) with
      | Some thr, Some drop when drop > thr ->
        [ Printf.sprintf
            "throughput regressed %.1f%% (threshold %.1f%%)" drop thr ]
      | Some thr, None ->
        [ Printf.sprintf
            "throughput threshold %.1f%% given but a run has no recorded \
             states/s" thr ]
      | _ -> [])
  in
  let dup =
    match (fail_dup_pp, c.cmp_dup_rise_pp) with
    | Some thr, Some rise when rise > thr ->
      [ Printf.sprintf
          "duplicate ratio rose %.2f points (threshold %.2f)" rise thr ]
    | Some thr, None ->
      [ Printf.sprintf
          "duplicate threshold %.2f given but a run has no profile" thr ]
    | _ -> []
  in
  rate @ dup

(* --- stats --follow ---------------------------------------------------- *)

let render_layer j =
  let get name = Option.value ~default:0. (num j name) in
  let load =
    match num j "visited_load_pct" with
    | Some l -> Printf.sprintf ", table %.0f%% full" l
    | None -> ""
  in
  Printf.sprintf
    "t=%6.1fs layer %3.0f depth %3.0f  %8.0f distinct %8.0f generated \
     frontier %7.0f%s"
    (get "elapsed_s") (get "layer") (get "depth") (get "distinct")
    (get "generated") (get "frontier") load

(* Tail the event log: print the layer records that exist, then poll for
   growth until the manifest leaves [Running] (or forever while there is
   no manifest yet — interrupt with Ctrl-C). A manifest that does not load
   would never leave [Running], so it ends the tail with its error.
   Partial trailing lines are retried on the next poll rather than
   dropped. *)
let follow ~dir print =
  let poll_s = 0.25 in
  let path = Filename.concat dir Events.file in
  let run_over () =
    if not (Sys.file_exists (Filename.concat dir Store.Manifest.file)) then
      Ok false
    else
      Result.map
        (fun m -> m.Store.Manifest.m_status <> Store.Manifest.Running)
        (Store.Manifest.load ~dir)
  in
  let buf = Buffer.create 256 in
  let feed ic =
    (* read whatever bytes are available, emitting completed lines *)
    let chunk = Bytes.create 4096 in
    let rec drain () =
      let n = input ic chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
      end
    in
    (try drain () with End_of_file -> ());
    let s = Buffer.contents buf in
    let parts = String.split_on_char '\n' s in
    let rec emit = function
      | [] -> Buffer.clear buf
      | [ tail ] ->
        Buffer.clear buf;
        Buffer.add_string buf tail
      | line :: rest ->
        (if String.trim line <> "" then
           match Store.Sjson.of_string line with
           | Ok j when event_type j = "layer" -> print (render_layer j)
           | Ok _ | Error _ -> ());
        emit rest
    in
    emit parts
  in
  let ( let* ) = Result.bind in
  let rec wait_for_file tries =
    if Sys.file_exists path then Ok (Some (open_in_bin path))
    else
      let* over = run_over () in
      if over || tries = 0 then Ok None
      else begin
        Unix.sleepf poll_s;
        wait_for_file (tries - 1)
      end
  in
  match wait_for_file 240 with
  | Error e -> Error e
  | Ok None -> Error (Printf.sprintf "%s: no events recorded" path)
  | Ok (Some ic) ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* the manifest is read before the log, so a run seen over has
           written its last record by the time it is fed *)
        let rec loop () =
          let* over = run_over () in
          feed ic;
          if over && Buffer.length buf = 0 then Ok ()
          else begin
            Unix.sleepf poll_s;
            loop ()
          end
        in
        loop ())
