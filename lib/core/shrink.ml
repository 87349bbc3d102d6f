type oracle =
  | Invariant of string
  | Custom of (Trace.t -> Trace.t option)

type labelled = (Trace.event * string) list

(* Match one event of a candidate, with its recorded label, against the
   enabled transitions of the current state. Removing earlier events shifts
   buffer indexes, so a Deliver is found by message identity (its label,
   rendered from the live state) when its recorded index no longer lines
   up; the chosen transition's own event is what lands in the rewritten
   trace, and its state is the only one built. *)
let step_readdress (type s) (module S : Spec.S with type state = s) scenario
    (state : s) (event, label) =
  let succ = S.successors scenario state in
  let exact () = List.find_opt (fun (e, _) -> Trace.equal_event e event) succ in
  match event with
  | Trace.Deliver { src; dst; index } -> (
    let same_message strict (e, _) =
      match e with
      | Trace.Deliver d ->
        d.src = src && d.dst = dst
        && ((not strict) || d.index = index)
        && String.equal (S.describe state e) label
      | _ -> false
    in
    (* unperturbed case first (exact position and payload), then the same
       payload at whatever index it shifted to, then purely positional *)
    match List.find_opt (same_message true) succ with
    | Some _ as hit -> hit
    | None -> (
      match List.find_opt (same_message false) succ with
      | Some _ as hit -> hit
      | None -> exact ()))
  | Trace.Drop { src; dst; _ } -> (
    match exact () with
    | Some _ as hit -> hit
    | None ->
      List.find_opt
        (fun (e, _) ->
          match e with
          | Trace.Drop d -> d.src = src && d.dst = dst
          | _ -> false)
        succ)
  | Trace.Duplicate { src; dst; _ } -> (
    match exact () with
    | Some _ as hit -> hit
    | None ->
      List.find_opt
        (fun (e, _) ->
          match e with
          | Trace.Duplicate d -> d.src = src && d.dst = dst
          | _ -> false)
        succ)
  | Trace.Timeout _ | Trace.Client _ | Trace.Crash _ | Trace.Restart _
  | Trace.Partition _ | Trace.Heal ->
    exact ()

(* Replay [events], re-addressing each one; [accept] may cut the replay
   short, and [finish] says whether a replay that uses up [events] counts. *)
let replay (type s) (module S : Spec.S with type state = s) scenario
    ~(accept : s -> bool) ~finish events =
  match S.init scenario with
  | [] -> None
  | s0 :: _ ->
    if accept s0 then Some []
    else
      let rec go state acc = function
        | [] -> if finish then Some (List.rev acc) else None
        | ev :: rest -> (
          match step_readdress (module S) scenario state ev with
          | None -> None
          | Some (e, build) ->
            let s' = build () in
            (* the rewritten event keeps the label of the live state *)
            let e = (e, S.describe state e) in
            if accept s' then Some (List.rev (e :: acc)) else go s' (e :: acc) rest)
      in
      go s0 [] events

let validate (spec : Spec.t) scenario oracle events =
  let (module S) = spec in
  match oracle with
  | Custom f -> (
    match
      replay (module S) scenario ~accept:(fun _ -> false) ~finish:true
        events
    with
    | None -> None
    | Some t ->
      Option.map
        (fun kept ->
          let n = List.length kept in
          List.filteri (fun i _ -> i < n) t)
        (f (List.map fst t)))
  | Invariant inv -> (
    match List.assoc_opt inv S.invariants with
    | None ->
      invalid_arg
        (Printf.sprintf "Shrink: spec %s has no invariant %S" S.name inv)
    | Some holds ->
      (* truncate at the earliest violating state; no constraint check —
         the explorer reports violations on discovered states even when
         they fall outside the constraint envelope *)
      replay (module S) scenario
        ~accept:(fun s -> not (holds scenario s))
        ~finish:false events)

type outcome = {
  minimized : Trace.t;
  labels : string list;
  original_len : int;
  minimized_len : int;
  tried : int;
  accepted : int;
  rounds : int;
  duration : float;
}

let remove_range lst lo hi = List.filteri (fun i _ -> i < lo || i >= hi) lst

let chunk_bounds ~len ~n =
  List.init n (fun i -> (i * len / n, (i + 1) * len / n))
  |> List.filter (fun (lo, hi) -> hi > lo)

let run ?probe spec scenario oracle trace =
  let t0 = Unix.gettimeofday () in
  let tried = ref 0 and accepted = ref 0 and rounds = ref 0 in
  let check cand = validate spec scenario oracle cand in
  (* one round: the first hit in generation order; the candidates after it
     are not evaluated, but the whole batch counts as tried *)
  let round candidates =
    match candidates with
    | [] -> None
    | _ -> (
      incr rounds;
      Probe.count probe "shrink.rounds" 1;
      let n = List.length candidates in
      tried := !tried + n;
      Probe.count probe "shrink.candidates" n;
      match List.find_map check candidates with
      | None -> None
      | Some t ->
        incr accepted;
        Probe.count probe "shrink.accepted" 1;
        Some t)
  in
  let finish minimized =
    let t1 = Unix.gettimeofday () in
    Probe.span_at probe "shrink" ~t0 ~t1;
    { minimized = List.map fst minimized;
      labels = List.map snd minimized;
      original_len = List.length trace;
      minimized_len = List.length minimized;
      tried = !tried;
      accepted = !accepted;
      rounds = !rounds;
      duration = t1 -. t0 }
  in
  (* each recorded delivery's label, from one replay of the input *)
  match check (List.combine trace (Spec.labels spec scenario trace)) with
  | None ->
    Probe.span_at probe "shrink" ~t0 ~t1:(Unix.gettimeofday ());
    invalid_arg "Shrink.run: the input trace does not reproduce the failure"
  | Some base ->
    (* ddmin over complements: each candidate drops one of n contiguous
       chunks; refine granularity on success, double it on failure, stop
       once single-event elision (n = len) finds nothing *)
    let rec ddmin base n =
      let len = List.length base in
      if len <= 1 then base
      else
        let n = min n len in
        let candidates =
          List.map
            (fun (lo, hi) -> remove_range base lo hi)
            (chunk_bounds ~len ~n)
        in
        match round candidates with
        | Some smaller -> ddmin smaller (max 2 (n - 1))
        | None -> if n >= len then base else ddmin base (min len (2 * n))
    in
    finish (ddmin base 2)

let pp_outcome ppf o =
  let pct =
    if o.original_len = 0 then 0.
    else
      100.
      *. float_of_int (o.original_len - o.minimized_len)
      /. float_of_int o.original_len
  in
  Fmt.pf ppf "shrunk %d -> %d events (-%.0f%%): %d candidates in %d rounds, \
              %d accepted, %.2fs"
    o.original_len o.minimized_len pct o.tried o.rounds o.accepted o.duration
