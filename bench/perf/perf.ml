(* The canonical SandTable benchmark. See README.md beside this file.

     perf.exe run     --workload W|all [--seed N] [--reps N] [--seconds S]
                      [--trace 0|1] [--out FILE] [--out-dir DIR]
     perf.exe trace   --workload W|all [--seed N] [--out FILE] [--out-dir DIR]
     perf.exe compare A.jsonl B.jsonl [--benchmark FILE]
     perf.exe smoke   [--benchmark FILE]

   [run] prints one result line per workload, the last line of stdout
   being the last workload's: {"correct", "attempted", "failed", "metrics"}
   with the end-to-end metrics (or, with --trace 1, the per-layer ones).
   [--out FILE] appends one record per workload to FILE, for [compare].
   Progress and the human-readable summary go to stderr. *)

module J = Store.Sjson

let usage () =
  prerr_endline
    "usage: perf.exe run|trace --workload W|all [--seed N] [--reps N] [--seconds S] \
     [--trace 0|1] [--out FILE] [--out-dir DIR]\n\
    \       perf.exe compare A.jsonl B.jsonl [--benchmark FILE]\n\
    \       perf.exe smoke [--benchmark FILE]";
  exit 2

(* [--key value] pairs after the subcommand; anything else is positional. *)
let parse_args args =
  let rec go opts pos = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
      go ((String.sub key 2 (String.length key - 2), v) :: opts) pos rest
    | [ key ] when String.starts_with ~prefix:"--" key -> usage ()
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let opt opts key ~default conv =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> (
    match conv v with
    | Some x -> x
    | None ->
      Fmt.epr "bad value for --%s: %s@." key v;
      exit 2)

let check_keys opts allowed =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then begin
        Fmt.epr "unknown option --%s@." k;
        usage ()
      end)
    opts

let workloads_of name =
  if name = "all" then Workloads.all
  else
    match Workloads.find name with
    | Some w -> [ w ]
    | None ->
      Fmt.epr "unknown workload %s (one of: all, %s)@." name
        (String.concat ", " Workloads.names);
      exit 2

let ensure_dir dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

(* One workload, untraced or traced; returns its result line and [--out]
   record, or [None] if no repetition produced numbers. *)
let run_one (w : Workloads.t) ~seed ~reps ~seconds ~trace ~out_dir =
  let size = Workloads.Full in
  if trace then begin
    let t = Protocol.trace_pass w ~size ~seed ~out_dir ~reps ~seconds in
    Protocol.print_traced t;
    Protocol.traced_result t ~seed
  end
  else begin
    let m = Protocol.measure w ~size ~seed ~out_dir ~reps ~seconds ~guard:true in
    Protocol.print_measured m;
    Protocol.measured_result m
  end

let run_cmd ~trace_default args =
  let opts, pos = parse_args args in
  if pos <> [] then usage ();
  check_keys opts [ "workload"; "seed"; "reps"; "seconds"; "trace"; "out"; "out-dir" ];
  let workloads = workloads_of (opt opts "workload" ~default:"all" Option.some) in
  let seed = opt opts "seed" ~default:1 int_of_string_opt in
  let seconds = opt opts "seconds" ~default:infinity float_of_string_opt in
  let reps =
    opt opts "reps"
      ~default:(if List.mem_assoc "seconds" opts then max_int else 5)
      int_of_string_opt
  in
  let trace =
    opt opts "trace" ~default:trace_default (function
      | "0" -> Some false
      | "1" -> Some true
      | _ -> None)
  in
  let out_dir = opt opts "out-dir" ~default:"bench/perf/out" Option.some in
  ensure_dir out_dir;
  let results =
    List.map
      (fun (w : Workloads.t) ->
        match run_one w ~seed ~reps ~seconds ~trace ~out_dir with
        | Some (line, entry) -> (w.name, line, entry)
        | None ->
          Fmt.epr "%s: no repetition produced a result@." w.name;
          exit 1)
      workloads
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
        (fun oc ->
          List.iter
            (fun (_, _, record) -> output_string oc (J.to_string_compact record ^ "\n"))
            results))
    (List.assoc_opt "out" opts);
  List.iter (fun (_, line, _) -> print_endline line) results;
  0

(* ------------------------------------------------------------------ *)
(* smoke: every workload scaled down, through the same protocol         *)
(* ------------------------------------------------------------------ *)

let declared benchmark key =
  Compare.declared benchmark key (fun str _ ->
      match str "name", str "unit" with Some n, Some u -> Some (n, u) | _ -> None)

let smoke_cmd args =
  let opts, _ = parse_args args in
  check_keys opts [ "benchmark"; "out-dir" ];
  let benchmark = opt opts "benchmark" ~default:"BENCHMARK.json" Option.some in
  let out_dir = opt opts "out-dir" ~default:"bench/perf/out/smoke" Option.some in
  ensure_dir out_dir;
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun m -> problems := m :: !problems) fmt in
  let same_names what declared catalog =
    let sort = List.sort compare in
    if sort declared <> sort catalog then
      problem "%s: BENCHMARK.json declares %s, the benchmark reports %s" what
        (String.concat " " (List.map fst (sort declared)))
        (String.concat " " (List.map fst (sort catalog)))
  in
  (match declared benchmark "end_to_end", declared benchmark "per_layer" with
  | Ok e2e, Ok layers ->
    same_names "end_to_end" e2e Catalog.end_to_end;
    same_names "per_layer" layers Catalog.per_layer
  | Error m, _ | _, Error m -> problem "%s" m);
  let expect_line (w : Workloads.t) ~trace line names =
    match J.of_string line with
    | Error m -> problem "%s: result line is not JSON: %s" w.name m
    | Ok doc ->
      if Option.bind (J.member "correct" doc) J.to_bool <> Some true then
        problem "%s (trace %b): not correct" w.name trace;
      let reported =
        match J.member "metrics" doc with
        | Some (J.Obj kv) -> List.map fst kv
        | _ -> []
      in
      if List.sort compare reported <> List.sort compare (List.map fst names) then
        problem "%s (trace %b): metric names differ from the catalog" w.name trace
  in
  let size = Workloads.Smoke and seed = 7 in
  List.iter
    (fun (w : Workloads.t) ->
      let m = Protocol.measure w ~size ~seed ~out_dir ~reps:1 ~seconds:infinity ~guard:false in
      (* the traced pass reuses the measured repetition as its untraced one *)
      let t =
        Protocol.trace_pass ~plain:(List.hd m.kept) w ~size ~seed ~out_dir ~reps:1
          ~seconds:infinity
      in
      let before = List.length !problems in
      List.iter
        (fun (trace, result, names) ->
          match result with
          | None -> problem "%s (trace %b): no result" w.name trace
          | Some (line, _) -> expect_line w ~trace line names)
        [ (false, Protocol.measured_result m, Catalog.end_to_end);
          (true, Protocol.traced_result t ~seed, Catalog.per_layer) ];
      if List.length !problems > before then begin
        Protocol.print_measured m;
        Protocol.print_traced t
      end)
    Workloads.all;
  match !problems with
  | [] ->
    Fmt.epr "@.perf smoke: all %d workloads correct, schema matches %s@."
      (List.length Workloads.all) benchmark;
    0
  | ps ->
    List.iter (fun m -> Fmt.epr "perf smoke FAILED: %s@." m) (List.rev ps);
    1

(* ------------------------------------------------------------------ *)

let rep_cmd args =
  let opts, _ = parse_args args in
  let get key = opt opts key ~default:"" Option.some in
  let w =
    match Workloads.find (get "workload") with Some w -> w | None -> usage ()
  in
  Protocol.child w
    ~size:(opt opts "size" ~default:Workloads.Full Protocol.size_of_string)
    ~seed:(opt opts "seed" ~default:1 int_of_string_opt)
    ~mode:(opt opts "mode" ~default:Workloads.Plain Protocol.mode_of_string)
    ~spawned:(opt opts "spawned" ~default:(Tracer.now_ns ()) int_of_string_opt)
    ~trace_file:(get "trace-file");
  0

let () =
  let code =
    match Array.to_list Sys.argv with
    | _ :: "run" :: args -> run_cmd ~trace_default:false args
    | _ :: "trace" :: args -> run_cmd ~trace_default:true args
    | _ :: "rep" :: args -> rep_cmd args
    | [ _; "kernel" ] ->
      Protocol.kernel_child ();
      0
    | _ :: "smoke" :: args -> smoke_cmd args
    | _ :: "compare" :: args -> (
      let opts, pos = parse_args args in
      check_keys opts [ "benchmark" ];
      match pos with
      | [ a; b ] ->
        Compare.run ~benchmark:(opt opts "benchmark" ~default:"BENCHMARK.json" Option.some) a b
      | _ -> usage ())
    | _ -> usage ()
  in
  exit code
