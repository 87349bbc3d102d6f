(* The parent side of the run protocol. Every repetition is a fresh child
   process (this binary re-executed with [rep]), so peak RSS and GC state
   never carry over from one repetition to the next; the parent only
   spawns, watches the machine, and aggregates.

   Contention guard: a repetition is flagged when the CPU time other
   processes took while it ran (busy time from /proc/stat, steal included,
   minus the child's own CPU time) exceeds [cores - 0.5] cores, i.e. when
   they left the single-worker child less than half a core of headroom. A
   flagged repetition is re-run up to twice while the time budget allows
   and reported either way. The 1-minute load average is recorded before
   and after each repetition but not used for flagging: back-to-back
   repetitions keep it near the benchmark's own single worker. *)

module J = Store.Sjson

type size = Workloads.size

type rep = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;
  repeat_key : int;
  wall : float;  (** child process wall time, seen by the parent *)
  load_before : float;
  load_after : float;
  others_cores : float;
  cores_used : float;
  contended : bool;
  kernel : float;
      (** mean of the {!Speed} kernel times just before and just after the
          repetition; nan where no kernel ran around it *)
}

let marker = "PERF-REP "

let value rep name = Option.value (List.assoc_opt name rep.values) ~default:0.

let size_arg : size -> string = function Full -> "full" | Smoke -> "smoke"

let size_of_string = function
  | "full" -> Some Workloads.Full
  | "smoke" -> Some Workloads.Smoke
  | _ -> None

let mode_arg : Workloads.mode -> string = function Plain -> "plain" | Traced -> "traced"

let mode_of_string = function
  | "plain" -> Some Workloads.Plain
  | "traced" -> Some Workloads.Traced
  | _ -> None

(* ------------------------------------------------------------------ *)
(* child                                                                *)
(* ------------------------------------------------------------------ *)

let gc_values ~work (g0 : Gc.stat) (g1 : Gc.stat) =
  let per_gen x = if work = 0 then 0. else x /. float work in
  [ ("gc.minor_words_per_gen", per_gen (g1.minor_words -. g0.minor_words));
    ("gc.promoted_words_per_gen", per_gen (g1.promoted_words -. g0.promoted_words));
    ("gc.minor_collections", float (g1.minor_collections - g0.minor_collections));
    ("gc.major_collections", float (g1.major_collections - g0.major_collections));
    ("gc.top_heap_mb",
     float g1.top_heap_words *. float (Sys.word_size / 8) /. 1048576.) ]

let emit ~values ~attempted ~failed ~failures ~repeat_key =
  let doc =
    J.Obj
      [ ("values", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) values));
        ("attempted", J.Num (float attempted)); ("failed", J.Num (float failed));
        ("failures", J.List (List.map (fun s -> J.Str s) failures));
        ("repeat_key", J.Num (float repeat_key)) ]
  in
  print_string (marker ^ J.to_string_compact doc ^ "\n")

(* One repetition, in its own process. [spawned] is the parent's
   monotonic clock reading just before the spawn: set-up time runs from
   there to the first timed call. *)
let child (w : Workloads.t) ~size ~seed ~(mode : Workloads.mode) ~spawned ~trace_file =
  let run = w.prepare size ~seed in
  let setup_s = float (Tracer.now_ns () - spawned) *. 1e-9 in
  if mode = Traced then begin
    Tracer.calibrate ();
    Fmt.epr "tracer: %d ns per span, %d ns per nested span@." !Tracer.inner
      !Tracer.outer
  end;
  let g0 = Gc.quick_stat () in
  let o = run mode in
  let g1 = Gc.quick_stat () in
  if mode = Traced then begin
    Fmt.epr "%a" Tracer.pp_table ();
    Tracer.write_chrome trace_file
  end;
  emit
    ~values:
      (o.values
      @ gc_values ~work:o.work g0 g1
      @ [ ("setup_s", setup_s); ("cpu_s", Host.cpu_s ());
          ("peak_rss_mb", Host.peak_rss_mb ()) ])
    ~attempted:o.attempted ~failed:o.failed ~failures:o.failures
    ~repeat_key:o.repeat_key

let kernel_child () = print_string (Printf.sprintf "%s%.17g\n" marker (Speed.kernel ()))

(* ------------------------------------------------------------------ *)
(* parent                                                               *)
(* ------------------------------------------------------------------ *)

(* Run this binary in a child with the arguments [args t0] gets, [t0]
   being the monotonic clock just before the spawn, and wait for it.
   Returns the rest of the child's first stdout line that starts with
   [marker] if it exited with 0, and the wall time the parent saw. *)
let spawn args =
  let r, wr = Unix.pipe ~cloexec:true () in
  let t0 = Tracer.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args t0))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let wall = float (Tracer.now_ns () - t0) *. 1e-9 in
  let line =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:marker l then
          Some (String.sub l (String.length marker) (String.length l - String.length marker))
        else None)
      lines
  in
  ((match status with Unix.WEXITED 0 -> line | _ -> None), wall)

(* One run of the {!Speed} kernel in a child of its own, so that its heap
   never touches a repetition's; nan if the child failed. *)
let kernel_s () =
  match spawn (fun _ -> [ "kernel" ]) with
  | Some l, _ -> Option.value (float_of_string_opt l) ~default:nan
  | None, _ -> nan

let parse_rep line =
  let ( let* ) = Option.bind in
  let* doc = Result.to_option (J.of_string line) in
  let* values = Option.bind (J.member "values" doc) (function J.Obj kv -> Some kv | _ -> None) in
  let num k = Option.bind (J.member k doc) J.to_int in
  let* attempted = num "attempted" in
  let* failed = num "failed" in
  let* repeat_key = num "repeat_key" in
  let failures =
    Option.bind (J.member "failures" doc) J.to_list
    |> Option.value ~default:[]
    |> List.filter_map J.to_str
  in
  Some
    ( List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (J.to_num v)) values,
      attempted, failed, failures, repeat_key )

(* Spawn one child and wait for it; a crash or a missing result line is a
   failed operation. *)
let run_rep (w : Workloads.t) ~size ~seed ~mode ~out_dir ~guard =
  let trace_file = Filename.concat out_dir ("trace-" ^ w.name ^ ".json") in
  let load_before = Host.loadavg () and busy0 = Host.busy_cpu_s () in
  let line, wall =
    spawn (fun t0 ->
        [ "rep"; "--workload"; w.name; "--size"; size_arg size;
          "--seed"; string_of_int seed; "--mode"; mode_arg mode;
          "--spawned"; string_of_int t0; "--trace-file"; trace_file ])
  in
  let busy1 = Host.busy_cpu_s () and load_after = Host.loadavg () in
  let values, attempted, failed, failures, repeat_key =
    match Option.bind line parse_rep with
    | Some p -> p
    | None ->
      ([], 1, 1, [ Printf.sprintf "%s %s repetition crashed" w.name (mode_arg mode) ], 0)
  in
  let cpu = Option.value (List.assoc_opt "cpu_s" values) ~default:0. in
  let others_cores = Float.max 0. ((busy1 -. busy0 -. cpu) /. wall) in
  let cores_used = cpu /. wall in
  let contended = guard && others_cores > float Host.cores -. 0.5 in
  { values; attempted; failed; failures; repeat_key; wall; load_before;
    load_after; others_cores; cores_used; contended; kernel = nan }

(* A crashed repetition counts as a failed operation but contributes no
   numbers. *)
let completed r = r.values <> []

(* Failed operations over [reps], plus one more operation: every
   repetition with one seed, traced or not, must reproduce the same repeat
   key (exact counts). *)
let totals reps =
  let a, f, msgs =
    List.fold_left
      (fun (a, f, msgs) r -> (a + r.attempted, f + r.failed, msgs @ r.failures))
      (0, 0, []) reps
  in
  match
    List.sort_uniq compare
      (List.filter_map (fun r -> if completed r then Some r.repeat_key else None) reps)
  with
  | [] | [ _ ] -> (a + 1, f, msgs)
  | keys ->
    ( a + 1, f + 1,
      msgs
      @ [ Printf.sprintf "repetitions disagree on their exact count: %s"
            (String.concat ", " (List.map string_of_int keys)) ] )

(* Call [one] until [reps] results are kept or the next call would end
   past [seconds], if it takes as long as the last; at least one runs. *)
let repeat ~reps ~seconds one =
  let started = Tracer.now_ns () in
  let elapsed () = float (Tracer.now_ns () - started) *. 1e-9 in
  let rec loop kept last =
    if kept <> [] && (List.length kept >= reps || elapsed () +. last > seconds) then
      List.rev kept
    else
      let t0 = elapsed () in
      let x = one ~elapsed (List.length kept) in
      loop (x :: kept) (elapsed () -. t0)
  in
  loop [] 0.

type measured = {
  workload : Workloads.t;
  seed : int;
  kept : rep list;  (** in run order *)
  retried : rep list;  (** contended repetitions replaced by a re-run *)
  m_attempted : int;
  m_failed : int;
  m_failures : string list;
}

(* A function that runs a repetition and then the kernel, so that a
   series of calls runs kernel, rep, kernel, rep, ..., kernel, and sets
   each repetition's [kernel] to the mean of the two around it. *)
let bracketing () =
  let before = ref (kernel_s ()) in
  fun run ->
    let r = run () in
    let after = kernel_s () in
    let kernel = (!before +. after) /. 2. in
    before := after;
    { r with kernel }

let measure (w : Workloads.t) ~size ~seed ~out_dir ~reps ~seconds ~guard =
  let retried = ref [] in
  let bracketed = bracketing () in
  let rec slot ~elapsed tries =
    let r = bracketed (fun () -> run_rep w ~size ~seed ~mode:Plain ~out_dir ~guard) in
    if r.contended && tries < 2 && elapsed () +. r.wall <= seconds then begin
      retried := r :: !retried;
      slot ~elapsed (tries + 1)
    end
    else r
  in
  let kept = repeat ~reps ~seconds (fun ~elapsed _ -> slot ~elapsed 0) in
  let a, f, msgs = totals (kept @ !retried) in
  { workload = w; seed; kept; retried = List.rev !retried;
    m_attempted = a; m_failed = f; m_failures = msgs }

(* What takes a repetition's times to the reference machine speed
   ({!Speed}). *)
let speedup r = Speed.reference_s /. r.kernel

(* A repetition's value of a metric at the reference machine speed: times
   multiplied by [speedup], rates divided by it, anything else as
   measured. *)
let scaled r name =
  let v = value r name in
  match Catalog.unit_of name with
  | "s" | "ns" -> v *. speedup r
  | "1/s" -> v /. speedup r
  | _ -> v

let samples f m name = List.map (fun r -> f r name) (List.filter completed m.kept)

(* The end-to-end values a run reports: medians over its repetitions of
   the scaled values. *)
let e2e_values m =
  List.map
    (fun (name, _) -> (name, Stats.median (samples scaled m name)))
    Catalog.end_to_end

(* The traced pass: pairs of one untraced and one traced repetition (the
   first untraced one may be [plain], already run), repeated like
   [measure]'s repetitions and bracketed by kernel runs the same way.
   Pairs alternate which side runs first, and every time is scaled to the
   reference machine speed, so that the traced-vs-untraced ratios compare
   children run at different moments. Per-layer values are medians over
   the untraced children where they have them and over the traced
   children otherwise. *)
type traced = {
  t_workload : Workloads.t;
  layers : (string * float) list;
  t_attempted : int;
  t_failed : int;
  t_failures : string list;
}

let trace_pass ?plain (w : Workloads.t) ~size ~seed ~out_dir ~reps ~seconds =
  let bracketed = bracketing () in
  let rep mode = bracketed (fun () -> run_rep w ~size ~seed ~mode ~out_dir ~guard:false) in
  let pairs =
    repeat ~reps ~seconds (fun ~elapsed:_ i ->
        match i, plain with
        | 0, Some a -> (a, rep Traced)
        | _ when i mod 2 = 0 ->
          let a = rep Plain in
          (a, rep Traced)
        | _ ->
          let b = rep Traced in
          (rep Plain, b))
  in
  let sum f side name = List.fold_left (fun s p -> s +. f (side p) name) 0. pairs in
  let time r name = value r name *. speedup r in
  let a_ttv = sum time fst "ttv_s" and b_ttv = sum time snd "ttv_s" in
  let pct x base = if base = 0. then 0. else (x -. base) /. base *. 100. in
  let staged = List.exists (fun (_, b) -> List.mem_assoc "_stage_sum_s" b.values) pairs in
  let derived =
    ("trace_overhead_pct", pct b_ttv a_ttv)
    ::
    (if staged then
       let stage_sum = sum time snd "_stage_sum_s" in
       [ ("explorer.reconcile_pct", stage_sum /. a_ttv *. 100.);
         ("explorer.residual_ns", (a_ttv -. stage_sum) /. sum value fst "_distinct" *. 1e9) ]
     else [])
  in
  let median_over side name =
    match
      List.filter_map
        (fun p ->
          if List.mem_assoc name (side p).values then Some (scaled (side p) name) else None)
        pairs
    with
    | [] -> None
    | xs -> Some (Stats.median xs)
  in
  let pick name =
    match List.assoc_opt name derived with
    | Some v -> v
    | None -> (
      match median_over fst name with
      | Some v -> v
      | None -> Option.value (median_over snd name) ~default:0.)
  in
  let att, failed, failures = totals (List.concat_map (fun (a, b) -> [ a; b ]) pairs) in
  { t_workload = w;
    layers = List.map (fun (name, _) -> (name, pick name)) Catalog.per_layer;
    t_attempted = att;
    t_failed = failed;
    t_failures = failures }

(* ------------------------------------------------------------------ *)
(* reporting                                                            *)
(* ------------------------------------------------------------------ *)

let metric_obj pairs =
  J.Obj
    (List.map
       (fun (name, v) ->
         (name, J.Obj [ ("value", J.Num v); ("unit", J.Str (Catalog.unit_of name)) ]))
       pairs)

(* The one-line result a harness reads: the last line of stdout. *)
let result_line ~attempted ~failed metrics =
  J.to_string_compact
    (J.Obj
       [ ("correct", J.Bool (failed = 0)); ("attempted", J.Num (float attempted));
         ("failed", J.Num (float failed)); ("metrics", metric_obj metrics) ])

let rep_json r =
  J.Obj
    [ ("wall_s", J.Num r.wall); ("cpu_s", J.Num (value r "cpu_s"));
      ("kernel_s", J.Num r.kernel);
      ("cores_used", J.Num r.cores_used); ("others_cores", J.Num r.others_cores);
      ("load_before", J.Num r.load_before); ("load_after", J.Num r.load_after);
      ("contended", J.Bool r.contended) ]

(* One line of a [--out] file: a run of one workload. [perf.exe compare]
   reads the untraced ones. *)
let record ~(w : Workloads.t) ~seed ~trace ~attempted ~failed ~metrics ~reps =
  J.Obj
    [ ("workload", J.Str w.name); ("trace", J.Bool trace); ("seed", J.Num (float seed));
      ("cores", J.Num (float Host.cores)); ("attempted", J.Num (float attempted));
      ("failed", J.Num (float failed));
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) metrics));
      ("reps", J.List (List.map rep_json reps)) ]

let finite pairs = List.for_all (fun (_, v) -> Float.is_finite v) pairs

(* The result line and [--out] record of a pass, or [None] when no
   repetition produced numbers to report. *)
let measured_result m =
  let metrics = e2e_values m in
  if finite metrics then
    Some
      ( result_line ~attempted:m.m_attempted ~failed:m.m_failed metrics,
        record ~w:m.workload ~seed:m.seed ~trace:false ~attempted:m.m_attempted
          ~failed:m.m_failed ~metrics ~reps:(m.kept @ m.retried) )
  else None

let traced_result t ~seed =
  if finite t.layers then
    Some
      ( result_line ~attempted:t.t_attempted ~failed:t.t_failed t.layers,
        record ~w:t.t_workload ~seed ~trace:true ~attempted:t.t_attempted
          ~failed:t.t_failed ~metrics:t.layers ~reps:[] )
  else None

let print_measured m =
  Fmt.epr "@.%s (seed %d, %d cores): %d kept, %d retried as contended, %d/%d failed@."
    m.workload.name m.seed Host.cores (List.length m.kept) (List.length m.retried)
    m.m_failed m.m_attempted;
  List.iter (fun msg -> Fmt.epr "  FAILED: %s@." msg) m.m_failures;
  List.iter
    (fun r ->
      Fmt.epr
        "  rep %.2fs  kernel %.3fs  cpu/wall %.2f  others %.2f cores  load %.2f -> %.2f%s@."
        r.wall r.kernel r.cores_used r.others_cores r.load_before r.load_after
        (if r.contended then "  CONTENDED" else ""))
    (m.kept @ m.retried);
  List.iter
    (fun (name, _) ->
      let s = Stats.summarize (samples scaled m name) in
      Fmt.epr "  %-14s %-12.6g Q1 %-12.6g Q3 %-12.6g n=%d  (unscaled median %.6g)@." name
        s.median s.q1 s.q3 s.n (Stats.median (samples value m name)))
    Catalog.end_to_end

let print_traced t =
  Fmt.epr "@.%s traced pass: %d/%d failed@." t.t_workload.name t.t_failed t.t_attempted;
  List.iter (fun msg -> Fmt.epr "  FAILED: %s@." msg) t.t_failures;
  List.iter (fun (name, v) -> if v <> 0. then Fmt.epr "  %-28s %.6g@." name v) t.layers
