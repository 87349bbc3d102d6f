(* lib/obs: metric merge determinism across worker counts, Chrome
   trace-event output validity and per-tid span nesting, events.ndjsonl
   agreement with explorer counters and its layer records across -j, the
   manifest roundtrip. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-obs" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let spec = Toy_spec.spec ()
let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4

let check_with_workers ?dir ?trace_out workers =
  let obs = Obs.Run.create ~workers ?dir ?trace_out () in
  let opts = { Explorer.default with probe = Obs.Run.probe obs } in
  let result =
    if workers = 1 then Explorer.check spec scenario opts
    else (Par.Par_explorer.check ~workers spec scenario opts).base
  in
  let summary =
    Obs.Run.finish obs ~outcome:"exhausted" ~distinct:result.distinct
      ~generated:result.generated ~max_depth:result.max_depth
      ~duration:result.duration ()
  in
  (result, summary)

(* ---- metrics: deterministic across -j --------------------------------- *)

let test_merge_determinism () =
  let runs =
    List.map
      (fun j ->
        let result, summary = check_with_workers j in
        (j, result, summary))
      [ 1; 2; 4 ]
  in
  let _, r1, s1 = List.hd runs in
  (* every counter, [symmetry.candidates] included: no counter may depend
     on the schedule *)
  let stable (s : Obs.Run.summary) = s.s_metrics.Obs.Metrics.s_counters in
  List.iter
    (fun (j, r, s) ->
      Alcotest.(check int) (Fmt.str "j%d distinct" j) r1.Explorer.distinct
        r.Explorer.distinct;
      Alcotest.(check int) (Fmt.str "j%d generated" j) r1.Explorer.generated
        r.Explorer.generated;
      Alcotest.(check int)
        (Fmt.str "j%d peak frontier" j)
        s1.Obs.Run.s_peak_frontier s.Obs.Run.s_peak_frontier;
      Alcotest.(check int) (Fmt.str "j%d layers" j) s1.Obs.Run.s_layers
        s.Obs.Run.s_layers;
      Alcotest.(check (list (pair string int)))
        (Fmt.str "j%d counters" j)
        (stable s1) (stable s))
    (List.tl runs)

let test_dup_counter_accounts_for_generated () =
  (* on an exhaustive run every generated state is either a distinct
     insertion or a duplicate hit, at any worker count; distinct also
     counts the one root state, which is discovered rather than generated *)
  let roots = 1 in
  List.iter
    (fun j ->
      let result, summary = check_with_workers j in
      let dups = Obs.Metrics.counter summary.Obs.Run.s_metrics "fp.dup" in
      Alcotest.(check int)
        (Fmt.str "j%d distinct + dups = generated + roots" j)
        (result.Explorer.generated + roots)
        (result.Explorer.distinct + dups))
    [ 1; 3 ]

(* ---- trace: valid JSON, spans nest per tid ---------------------------- *)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_trace_valid_and_nested () =
  with_tmpdir (fun dir ->
      let trace_out = Filename.concat dir "trace.json" in
      let _ = check_with_workers ~trace_out 4 in
      let json =
        match Store.Sjson.of_string (read_whole trace_out) with
        | Ok j -> j
        | Error m -> Alcotest.failf "trace is not valid JSON: %s" m
      in
      let events =
        match
          Option.bind (Store.Sjson.member "traceEvents" json)
            Store.Sjson.to_list
        with
        | Some l -> l
        | None -> Alcotest.fail "trace has no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (List.length events > 0);
      let str j name =
        Option.bind (Store.Sjson.member name j) Store.Sjson.to_str
      in
      let num j name =
        Option.bind (Store.Sjson.member name j) Store.Sjson.to_num
      in
      let spans =
        List.filter_map
          (fun e ->
            if str e "ph" = Some "X" then
              match (num e "tid", num e "ts", num e "dur") with
              | Some tid, Some ts, Some dur ->
                Alcotest.(check bool) "ts >= 0" true (ts >= 0.);
                Alcotest.(check bool) "dur >= 0" true (dur >= 0.);
                Some (int_of_float tid, ts, dur)
              | _ -> Alcotest.fail "X event missing tid/ts/dur"
            else begin
              (* only metadata events besides complete spans *)
              Alcotest.(check (option string)) "meta" (Some "M") (str e "ph");
              None
            end)
          events
      in
      let tids = List.sort_uniq compare (List.map (fun (t, _, _) -> t) spans) in
      Alcotest.(check (list int)) "one lane per worker" [ 0; 1; 2; 3 ] tids;
      (* within a tid, spans sorted by start either nest or are disjoint
         (sub-10µs fuzz tolerated: endpoints come from separate
         gettimeofday calls) *)
      let fuzz = 10. in
      List.iter
        (fun tid ->
          let mine =
            List.sort compare
              (List.filter_map
                 (fun (t, ts, dur) -> if t = tid then Some (ts, dur) else None)
                 spans)
          in
          ignore
            (List.fold_left
               (fun prev (ts, dur) ->
                 (match prev with
                 | Some (pts, pdur) ->
                   let disjoint = ts >= pts +. pdur -. fuzz in
                   let nested = ts +. dur <= pts +. pdur +. fuzz in
                   Alcotest.(check bool)
                     (Fmt.str "tid %d span at %f overlaps predecessor" tid ts)
                     true (disjoint || nested)
                 | None -> ());
                 Some (ts, dur))
               None mine))
        tids)

(* ---- events.ndjsonl vs explorer counters ------------------------------ *)

let test_events_match_result () =
  with_tmpdir (fun dir ->
      let result, summary = check_with_workers ~dir 1 in
      let records =
        match Obs.Events.read_all (Filename.concat dir Obs.Events.file) with
        | Ok r -> r
        | Error m -> Alcotest.failf "events unreadable: %s" m
      in
      let typ r =
        Option.bind (Store.Sjson.member "type" r) Store.Sjson.to_str
      in
      let int_field r name =
        match Option.bind (Store.Sjson.member name r) Store.Sjson.to_int with
        | Some n -> n
        | None -> Alcotest.failf "record missing %s" name
      in
      let layers = List.filter (fun r -> typ r = Some "layer") records in
      Alcotest.(check int) "layer records" summary.Obs.Run.s_layers
        (List.length layers);
      let last = List.nth layers (List.length layers - 1) in
      Alcotest.(check int) "final distinct" result.Explorer.distinct
        (int_field last "distinct");
      Alcotest.(check int) "final generated" result.Explorer.generated
        (int_field last "generated");
      Alcotest.(check int) "final frontier empty" 0 (int_field last "frontier");
      (match List.filter (fun r -> typ r = Some "done") records with
      | [ d ] ->
        Alcotest.(check int) "done distinct" result.Explorer.distinct
          (int_field d "distinct");
        Alcotest.(check int) "done max_depth" result.Explorer.max_depth
          (int_field d "max_depth")
      | l -> Alcotest.failf "expected one done record, found %d" (List.length l));
      (* metrics.json landed too *)
      Alcotest.(check bool) "metrics.json written" true
        (Sys.file_exists (Filename.concat dir Obs.Run.metrics_file)))

(* ---- manifest roundtrip ----------------------------------------------- *)

let test_manifest_v7_roundtrip () =
  with_tmpdir (fun dir ->
      let m =
        { (Store.Manifest.make ~system:"toy" ~scenario:"toy-2n"
             ~identity:"cafebabe" ~engine:"par" ~workers:4 ~cores:2
             ~flags:[ ("nodes", "2") ])
          with
          Store.Manifest.m_status = Store.Manifest.Done;
          m_outcome = Some "violation: Inv";
          m_trace = Some "trace.bin";
          m_shrink =
            Some
              { Store.Manifest.ms_original = 54;
                ms_minimized = 12;
                ms_trace = "minimized.trace" } }
      in
      Store.Manifest.save ~dir m;
      let raw = read_whole (Filename.concat dir Store.Manifest.file) in
      (match Store.Sjson.of_string raw with
      | Ok j ->
        Alcotest.(check (option int)) "written as the current version"
          (Some Store.Manifest.version)
          (Option.bind (Store.Sjson.member "version" j) Store.Sjson.to_int);
        (* absent options are written, as null *)
        Alcotest.(check bool) "faults written as null" true
          (Store.Sjson.member "faults" j = Some Store.Sjson.Null)
      | Error e -> Alcotest.failf "manifest is not JSON: %s" e);
      match Store.Manifest.load ~dir with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok m' ->
        Alcotest.(check int) "cores" 2 m'.Store.Manifest.m_cores;
        Alcotest.(check bool) "every field survives" true (m = m'))

(* ---- telemetry: layer-aligned fields deterministic across -j ---------- *)

let layer_fields r =
  let num name =
    match Option.bind (Store.Sjson.member name r) Store.Sjson.to_int with
    | Some n -> n
    | None -> Alcotest.failf "layer record missing %s" name
  in
  ( num "layer",
    num "depth",
    num "distinct",
    num "generated",
    num "frontier",
    num "fault_phase" )

let layer_records dir =
  match Obs.Events.read_all (Filename.concat dir Obs.Events.file) with
  | Error m -> Alcotest.failf "events unreadable: %s" m
  | Ok records ->
    List.filter
      (fun r ->
        Option.bind (Store.Sjson.member "type" r) Store.Sjson.to_str
        = Some "layer")
      records

let test_telemetry_layer_aligned () =
  (* the counts a layer record carries at each barrier are facts about
     the exploration, not the schedule: identical at every worker count
     (the rates, GC and per-worker split beside them are diagnostic only) *)
  let runs =
    List.map
      (fun j ->
        with_tmpdir (fun dir ->
            let _ = check_with_workers ~dir j in
            (j, List.map layer_fields (layer_records dir))))
      [ 1; 2; 4 ]
  in
  let _, base = List.hd runs in
  Alcotest.(check bool) "samples recorded" true (base <> []);
  List.iter
    (fun (j, fields) ->
      Alcotest.(check int)
        (Fmt.str "j%d sample count" j)
        (List.length base) (List.length fields);
      List.iter2
        (fun (l1, d1, di1, g1, f1, p1) (l2, d2, di2, g2, f2, p2) ->
          Alcotest.(check (list int))
            (Fmt.str "j%d layer-aligned fields" j)
            [ l1; d1; di1; g1; f1; p1 ]
            [ l2; d2; di2; g2; f2; p2 ])
        base fields)
    (List.tl runs)

(* ---- profile: duplicates reconcile with generated − distinct ---------- *)

let reconcile label (r : Explorer.result) (p : Obs.Profile.summary) =
  Alcotest.(check int)
    (label ^ ": generated agrees")
    r.Explorer.generated p.Obs.Profile.p_generated;
  Alcotest.(check int)
    (label ^ ": distinct agrees")
    r.Explorer.distinct p.Obs.Profile.p_distinct;
  Alcotest.(check int)
    (label ^ ": distinct = roots + generated − duplicates")
    (p.Obs.Profile.p_roots + p.Obs.Profile.p_generated
    - p.Obs.Profile.p_duplicates)
    p.Obs.Profile.p_distinct;
  let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Alcotest.(check int)
    (label ^ ": per-depth generated sums")
    p.Obs.Profile.p_generated
    (sum (fun (d : Obs.Profile.depth_row) -> d.pd_generated)
       p.Obs.Profile.p_by_depth);
  Alcotest.(check int)
    (label ^ ": per-depth duplicates sum")
    p.Obs.Profile.p_duplicates
    (sum (fun (d : Obs.Profile.depth_row) -> d.pd_duplicates)
       p.Obs.Profile.p_by_depth);
  Alcotest.(check int)
    (label ^ ": per-event expansions sum to generated")
    p.Obs.Profile.p_generated
    (sum (fun (e : Obs.Profile.event_row) -> e.pe_expansions)
       p.Obs.Profile.p_by_event);
  Alcotest.(check int)
    (label ^ ": per-event duplicates sum")
    p.Obs.Profile.p_duplicates
    (sum (fun (e : Obs.Profile.event_row) -> e.pe_duplicates)
       p.Obs.Profile.p_by_event)

let test_profile_reconciles_and_roundtrips () =
  List.iter
    (fun j ->
      with_tmpdir (fun dir ->
          let result, summary = check_with_workers ~dir j in
          let p = summary.Obs.Run.s_profile in
          reconcile (Fmt.str "j%d" j) result p;
          (* identical shape at every worker count *)
          let p1 =
            let r1, s1 = check_with_workers 1 in
            reconcile "seq" r1 s1.Obs.Run.s_profile;
            s1.Obs.Run.s_profile
          in
          Alcotest.(check int) (Fmt.str "j%d duplicates match seq" j)
            p1.Obs.Profile.p_duplicates p.Obs.Profile.p_duplicates;
          (* expansion attribution is a fact about the state graph (every
             generated edge has a fixed parent event), so it is identical
             at any worker count; which same-layer generator of a shared
             fingerprint gets counted as the duplicate is schedule-
             dependent, so per-event duplicate splits are compared only in
             total *)
          Alcotest.(check bool)
            (Fmt.str "j%d expansion attribution matches seq" j)
            true
            (List.map
               (fun (e : Obs.Profile.event_row) -> (e.pe_key, e.pe_expansions))
               p1.Obs.Profile.p_by_event
            = List.map
                (fun (e : Obs.Profile.event_row) ->
                  (e.pe_key, e.pe_expansions))
                p.Obs.Profile.p_by_event);
          (* finish wrote profile.json; it reloads to the same summary *)
          match Obs.Profile.load ~dir with
          | Error m -> Alcotest.failf "profile.json unreadable: %s" m
          | Ok p' ->
            Alcotest.(check int) "roundtrip distinct"
              p.Obs.Profile.p_distinct p'.Obs.Profile.p_distinct;
            Alcotest.(check (option string)) "roundtrip top source"
              p.Obs.Profile.p_dup_top_source p'.Obs.Profile.p_dup_top_source))
    [ 1; 4 ]

let test_profile_reconciles_all_systems () =
  (* the identity is structural — it must hold on every integrated system,
     including budget-capped runs that stop mid-layer *)
  List.iter
    (fun (sys : Systems.Registry.t) ->
      let spec = sys.spec Systems.Bug.Flags.empty in
      let obs = Obs.Run.create ~workers:1 () in
      let opts =
        { Explorer.default with
          max_states = Some 2000;
          probe = Obs.Run.probe obs }
      in
      let result = Explorer.check spec sys.default_scenario opts in
      let summary =
        Obs.Run.finish obs ~outcome:"test" ~distinct:result.distinct
          ~generated:result.generated ~max_depth:result.max_depth
          ~duration:result.duration ()
      in
      reconcile sys.name result summary.Obs.Run.s_profile)
    Systems.Registry.all

(* ---- events: trailing partial line tolerated, interior corruption not - *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let has_infix hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_events_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "events.ndjsonl" in
      write_file path
        "{\"type\":\"layer\",\"depth\":1}\n{\"type\":\"layer\",\"depth\":2}\n{\"type\":\"lay";
      (match Obs.Events.read_all path with
      | Ok records ->
        Alcotest.(check int) "torn tail: completed records kept" 2
          (List.length records)
      | Error m -> Alcotest.failf "torn tail rejected: %s" m);
      (* corruption with records after it is not a torn tail *)
      write_file path
        "{\"type\":\"layer\",\"depth\":1}\n{oops\n{\"type\":\"layer\",\"depth\":2}\n";
      match Obs.Events.read_all path with
      | Ok _ -> Alcotest.fail "interior corruption accepted"
      | Error m ->
        Alcotest.(check bool) "error cites the line" true (has_infix m ":2:"))

(* ---- progress cadence parsing and ETA --------------------------------- *)

let test_progress_cadence () =
  (match Obs.Progress.parse_cadence "0" with
  | Ok Obs.Progress.Never -> ()
  | _ -> Alcotest.fail "\"0\" should disable");
  (match Obs.Progress.parse_cadence "5000" with
  | Ok (Obs.Progress.Every_states 5000) -> ()
  | _ -> Alcotest.fail "\"5000\" should be a state count");
  (match Obs.Progress.parse_cadence "2s" with
  | Ok (Obs.Progress.Every_seconds 2.) -> ()
  | _ -> Alcotest.fail "\"2s\" should be a duration");
  (match Obs.Progress.parse_cadence "0.5s" with
  | Ok (Obs.Progress.Every_seconds 0.5) -> ()
  | _ -> Alcotest.fail "\"0.5s\" should be a duration");
  (match Obs.Progress.parse_cadence "2x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "\"2x\" should be rejected");
  let line =
    Obs.Progress.line ~label:"check[t]" ~unit_name:"distinct" ~count:250
      ~total:1000 ~elapsed:1.0 ()
  in
  Alcotest.(check bool) "percent rendered" true
    (has_infix line "25% of 1000");
  Alcotest.(check bool) "ETA rendered" true
    (has_infix line "ETA 3s");
  let bare =
    Obs.Progress.line ~label:"check[t]" ~unit_name:"distinct" ~count:250
      ~elapsed:1.0 ()
  in
  Alcotest.(check bool) "no total, no ETA" false
    (has_infix bare "ETA")

(* ---- one symmetric space under every engine and -j -------------------- *)

(* On three nodes the toy's tick vectors tie often, so tie blocks of two
   and three nodes occur. Each exhaustive run is observed under [Obs.Run]:
   the sequential engine, then strict BFS and work stealing at -j2 and -j4.
   The runs are shared by the cases below. *)
let engine_runs =
  lazy
    (let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:5 in
     let observed ?(workers = 1) run =
       let obs = Obs.Run.create ~workers () in
       let r : Explorer.result =
         run { Explorer.default with probe = Obs.Run.probe obs }
       in
       let s =
         Obs.Run.finish obs ~outcome:"exhausted" ~distinct:r.distinct
           ~generated:r.generated ~max_depth:r.max_depth
           ~duration:r.duration ()
       in
       (r, s.Obs.Run.s_metrics)
     in
     ("seq", 1, observed (Explorer.check spec scenario))
     :: List.concat_map
          (fun j ->
            [ ( "strict-BFS", j,
                observed ~workers:j (fun o ->
                    (Par.Par_explorer.check ~workers:j spec scenario o).base) );
              ( "work-stealing", j,
                observed ~workers:j (fun o ->
                    (Par.Ws_explorer.check ~workers:j spec scenario o).base) ) ])
          [ 2; 4 ])

let test_symmetry_candidates_deterministic () =
  (* the fingerprinted-permutation count depends only on each state's
     orbit, so every engine and worker count agrees *)
  let candidates m = Obs.Metrics.counter m "symmetry.candidates" in
  match Lazy.force engine_runs with
  | [] -> assert false
  | (_, _, (seq_r, seq_m)) :: parallel ->
    let seq = candidates seq_m and generated = seq_r.Explorer.generated in
    (* more than one per canonicalisation (ties), fewer than 3! (keys) *)
    Alcotest.(check bool) "ties tried" true (seq > generated + 1);
    Alcotest.(check bool) "fewer than all permutations" true
      (seq < 6 * (generated + 1));
    List.iter
      (fun (engine, j, (_, m)) ->
        Alcotest.(check int) (Fmt.str "%s -j%d" engine j) seq (candidates m))
      parallel

let test_visited_gauges () =
  (* the gauges CI's visited-store gate reads from metrics.json *)
  let gauge (m : Obs.Metrics.summary) name =
    match List.assoc_opt name m.s_gauges with
    | Some g -> g.Obs.Metrics.g_last
    | None -> Alcotest.failf "no %s gauge" name
  in
  let runs = Lazy.force engine_runs in
  List.iter
    (fun (engine, j, ((r : Explorer.result), m)) ->
      let label what = Fmt.str "%s -j%d %s" engine j what in
      let entries = gauge m "visited.entries" in
      Alcotest.(check (float 0.)) (label "entries = distinct")
        (float_of_int r.distinct) entries;
      Alcotest.(check (float 0.)) (label "bytes_per_state")
        (gauge m "visited.store_bytes" /. entries)
        (gauge m "visited.bytes_per_state"))
    runs;
  (* the sharded store's layout does not depend on the worker count, so
     a -j2 row stands for -j4 *)
  let store_bytes engine j =
    List.find_map
      (fun (e, j', (_, m)) ->
        if e = engine && j' = j then Some (gauge m "visited.store_bytes")
        else None)
      runs
    |> Option.get
  in
  List.iter
    (fun engine ->
      Alcotest.(check (float 0.)) (engine ^ " store bytes -j2 = -j4")
        (store_bytes engine 2) (store_bytes engine 4))
    [ "strict-BFS"; "work-stealing" ]

(* ---- probe off = same exploration ------------------------------------- *)

let test_probe_off_same_result () =
  let bare = Explorer.check spec scenario Explorer.default in
  let observed, _ = check_with_workers 1 in
  Alcotest.(check int) "distinct" bare.Explorer.distinct
    observed.Explorer.distinct;
  Alcotest.(check int) "generated" bare.Explorer.generated
    observed.Explorer.generated;
  Alcotest.(check int) "max_depth" bare.Explorer.max_depth
    observed.Explorer.max_depth

let suite =
  ( "obs",
    [ case "metric merge is deterministic across -j" test_merge_determinism;
      case "distinct + fp.dup = generated" test_dup_counter_accounts_for_generated;
      case "trace file is valid JSON with nested spans"
        test_trace_valid_and_nested;
      case "events.ndjsonl matches explorer counters" test_events_match_result;
      case "telemetry layer fields deterministic across -j"
        test_telemetry_layer_aligned;
      case "profile reconciles and roundtrips"
        test_profile_reconciles_and_roundtrips;
      case "profile reconciles on every system"
        test_profile_reconciles_all_systems;
      case "events tolerate a torn tail" test_events_torn_tail;
      case "progress cadence parsing and ETA" test_progress_cadence;
      case "manifest v7 roundtrip" test_manifest_v7_roundtrip;
      case "symmetry.candidates deterministic across engines and -j"
        test_symmetry_candidates_deterministic;
      case "visited gauges agree with the store across engines and -j"
        test_visited_gauges;
      case "probe changes nothing about exploration"
        test_probe_off_same_result ] )
