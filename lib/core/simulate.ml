type walk = {
  events : Trace.t;
  depth : int;
  coverage : Coverage.t;
  violation : (string * int) option;
  observations : Tla.Value.t list;
}

type purpose = Check | Conform
type options = { max_depth : int; purpose : purpose }

let default = { max_depth = 50; purpose = Check }

let walk ?probe (module S : Spec.S) scenario opts rng =
  let t0 = Probe.now probe in
  let pick successors =
    List.nth successors (Random.State.int rng (List.length successors))
  in
  (* the transition taken: a checking walk builds every enabled successor,
     so coverage sees every branch they take; a conformance walk builds
     only the one it takes *)
  let step state =
    match opts.purpose with
    | Check -> (
      match S.next scenario state with [] -> None | succ -> Some (pick succ))
    | Conform -> (
      match S.successors scenario state with
      | [] -> None
      | succ ->
        let event, build = pick succ in
        Some (event, build ()))
  in
  let broken state =
    match opts.purpose with
    | Conform -> None
    | Check ->
      List.find_map
        (fun (name, holds) -> if holds scenario state then None else Some name)
        S.invariants
  in
  let run () =
    let inits = S.init scenario in
    let s0 = List.nth inits (Random.State.int rng (List.length inits)) in
    let rec loop state depth events observations =
      match broken state with
      | Some name -> events, observations, Some (name, depth)
      | None -> (
        if depth >= opts.max_depth || not (S.constraint_ok scenario state) then
          events, observations, None
        else
          match step state with
          | None -> events, observations, None
          | Some (event, state') ->
            let observations =
              match opts.purpose with
              | Conform -> S.observe state' :: observations
              | Check -> observations
            in
            loop state' (depth + 1) (event :: events) observations)
    in
    loop s0 0 [] []
  in
  let (events, observations, violation), coverage =
    match opts.purpose with
    | Check -> Coverage.collect run
    | Conform -> run (), Coverage.empty
  in
  let depth = List.length events in
  Probe.count probe "sim.walks" 1;
  Probe.count probe "sim.events" depth;
  Probe.span_at probe "walk" ~t0 ~t1:(Probe.now probe);
  { events = List.rev events;
    depth;
    coverage;
    violation;
    observations = List.rev observations }

(* SplitMix64-style finaliser: walk [i]'s RNG stream depends only on the
   root seed and the walk index, never on the walks before it or on which
   domain runs it. *)
let derived_seed root i =
  let open Int64 in
  let z =
    add (of_int root) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31))

let rng_for ~seed i = Random.State.make [| seed; derived_seed seed i |]

let walks ?probe spec scenario opts ~seed ~count =
  List.init count (fun i -> walk ?probe spec scenario opts (rng_for ~seed i))

type aggregate = {
  runs : int;
  total_events : int;
  mean_depth : float;
  max_depth_seen : int;
  union_coverage : Coverage.t;
  event_kinds : string list;
  violations : int;
  first_violation : walk option;
}

let no_walks =
  { runs = 0;
    total_events = 0;
    mean_depth = 0.;
    max_depth_seen = 0;
    union_coverage = Coverage.empty;
    event_kinds = [];
    violations = 0;
    first_violation = None }

let merge a b =
  let runs = a.runs + b.runs and total_events = a.total_events + b.total_events in
  { runs;
    total_events;
    mean_depth = (if runs = 0 then 0. else float total_events /. float runs);
    max_depth_seen = max a.max_depth_seen b.max_depth_seen;
    union_coverage = Coverage.union a.union_coverage b.union_coverage;
    event_kinds = List.sort_uniq String.compare (a.event_kinds @ b.event_kinds);
    violations = a.violations + b.violations;
    first_violation =
      (match a.first_violation with Some _ as w -> w | None -> b.first_violation)
  }

let add a (w : walk) =
  let violated = Option.is_some w.violation in
  merge a
    { runs = 1;
      total_events = w.depth;
      mean_depth = float w.depth;
      max_depth_seen = w.depth;
      union_coverage = w.coverage;
      event_kinds = List.sort_uniq String.compare (List.map Trace.kind w.events);
      violations = (if violated then 1 else 0);
      first_violation = (if violated then Some w else None) }

let aggregate ws = List.fold_left add no_walks ws

let pp_aggregate ppf a =
  Fmt.pf ppf
    "runs=%d events=%d mean_depth=%.1f max_depth=%d coverage=%d kinds=%d \
     violations=%d"
    a.runs a.total_events a.mean_depth a.max_depth_seen
    (Coverage.cardinal a.union_coverage)
    (List.length a.event_kinds) a.violations
