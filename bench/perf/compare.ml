(* perf.exe compare A B: two files written by [perf.exe run --out], A
   from the parent commit and B from the change, each holding one line per
   run of a workload (ten or more runs per side, a new seed per run, as in
   the alternating-pairs protocol). For every workload on both sides and
   every end-to-end metric BENCHMARK.json declares, the runs' values are
   summarised as median, Q1, Q3 and n, and:

     unresolved  either side's IQR is wider than the metric's bound
     worse       B's median is worse than A's by more than the bound
     better      B's median is better than A's by more than A's own IQR
     unchanged   otherwise

   Exits 1 on any [worse] verdict and on any rise in fail_rate. *)

module J = Store.Sjson

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> Result.map_error (fun m -> path ^ ": " ^ m) (J.of_string s)

(* The entries of one metric list of BENCHMARK.json ("end_to_end" or
   "per_layer"), each read by [entry]. *)
let declared benchmark key entry =
  let ( let* ) = Result.bind in
  let* doc = read_json benchmark in
  match Option.bind (J.member key doc) J.to_list with
  | None -> Error (Printf.sprintf "%s: no %s list" benchmark key)
  | Some l -> (
    let str j k = Option.bind (J.member k j) J.to_str in
    match List.map (fun j -> entry (str j) j) l with
    | entries when List.for_all Option.is_some entries -> Ok (List.filter_map Fun.id entries)
    | _ -> Error (Printf.sprintf "%s: malformed %s entry" benchmark key))

type bound = { name : string; better : string; bound : float }

let bounds benchmark =
  declared benchmark "end_to_end" (fun str j ->
      match str "name", str "better", Option.bind (J.member "bound" j) J.to_num with
      | Some name, Some better, Some bound -> Some { name; better; bound }
      | _ -> None)

(* The untraced runs of a [--out] file, grouped by workload in file
   order. *)
let runs path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error m -> Error m
  | lines ->
    List.filter (fun l -> String.trim l <> "") lines
    |> List.fold_left
         (fun acc line ->
           match acc, J.of_string line with
           | Error _, _ -> acc
           | Ok _, Error m -> Error (path ^ ": " ^ m)
           | Ok groups, Ok doc -> (
             match
               Option.bind (J.member "workload" doc) J.to_str,
               Option.bind (J.member "trace" doc) J.to_bool
             with
             | Some w, Some false ->
               let prev = Option.value (List.assoc_opt w groups) ~default:[] in
               Ok ((w, prev @ [ doc ]) :: List.remove_assoc w groups)
             | Some _, Some true -> Ok groups
             | _ -> Error (path ^ ": a line without workload or trace")))
         (Ok [])
    |> Result.map List.rev

let verdict b (sa : Stats.summary) (sb : Stats.summary) =
  let delta = (sb.median -. sa.median) /. Float.abs sa.median in
  let worse_by = if b.better = "lower" then delta else -.delta in
  if Float.max (Stats.spread sa) (Stats.spread sb) > b.bound then "unresolved"
  else if worse_by > b.bound then "worse"
  else if -.worse_by > Stats.spread sa then "better"
  else "unchanged"

let summary docs name =
  match
    List.filter_map
      (fun d -> Option.bind (Option.bind (J.member "metrics" d) (J.member name)) J.to_num)
      docs
  with
  | [] -> None
  | xs -> Some (Stats.summarize xs)

let fail_rate docs =
  let total k = List.fold_left (fun n d -> n + Option.value (Option.bind (J.member k d) J.to_int) ~default:0) 0 docs in
  let a = total "attempted" in
  if a = 0 then 0. else float (total "failed") /. float a

let run ~benchmark a_path b_path =
  let ( let* ) = Result.bind in
  let result =
    let* bounds = bounds benchmark in
    let* a = runs a_path in
    let* b = runs b_path in
    Ok (bounds, a, b)
  in
  match result with
  | Error m ->
    Fmt.epr "compare: %s@." m;
    2
  | Ok (bounds, wa, wb) ->
    let regressions = ref 0 in
    let cell (s : Stats.summary) = Fmt.str "%.4g [%.4g-%.4g] n=%d" s.median s.q1 s.q3 s.n in
    Fmt.pr "%-14s %-13s %-34s %-34s %8s  %s@." "workload" "metric" "A median [Q1-Q3]"
      "B median [Q1-Q3]" "delta" "verdict";
    List.iter
      (fun (name, da) ->
        match List.assoc_opt name wb with
        | None -> Fmt.pr "%-14s (only in %s)@." name a_path
        | Some db ->
          List.iter
            (fun b ->
              match summary da b.name, summary db b.name with
              | Some sa, Some sb ->
                let v = verdict b sa sb in
                if v = "worse" then incr regressions;
                Fmt.pr "%-14s %-13s %-34s %-34s %+7.2f%%  %s@." name b.name (cell sa)
                  (cell sb)
                  ((sb.median -. sa.median) /. Float.abs sa.median *. 100.)
                  v
              | _ -> Fmt.pr "%-14s %-13s (missing on one side)@." name b.name)
            bounds;
          if fail_rate db > fail_rate da then begin
            incr regressions;
            Fmt.pr "%-14s fail_rate rose: %g -> %g@." name (fail_rate da) (fail_rate db)
          end)
      wa;
    if !regressions > 0 then 1 else 0
