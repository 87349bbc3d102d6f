type walk = {
  events : Trace.t;
  depth : int;
  coverage : Coverage.t;
  violation : (string * int) option;
  observations : Tla.Value.t list;
}

type options = {
  max_depth : int;
  record_observations : bool;
  stop_on_violation : bool;
}

let default =
  { max_depth = 50; record_observations = false; stop_on_violation = true }

let walk ?probe (module S : Spec.S) scenario opts rng =
  Probe.span_begin probe "walk";
  let broken state =
    List.find_map
      (fun (name, holds) -> if holds scenario state then None else Some name)
      S.invariants
  in
  let run () =
    let inits = S.init scenario in
    let s0 = List.nth inits (Random.State.int rng (List.length inits)) in
    let rec loop state depth events observations violation =
      let violation =
        match violation with
        | Some _ -> violation
        | None -> Option.map (fun name -> name, depth) (broken state)
      in
      let stop =
        depth >= opts.max_depth
        || (opts.stop_on_violation && Option.is_some violation)
        || not (S.constraint_ok scenario state)
      in
      if stop then events, observations, violation
      else
        match S.next scenario state with
        | [] -> events, observations, violation
        | successors ->
          let event, state' =
            List.nth successors (Random.State.int rng (List.length successors))
          in
          let observations =
            if opts.record_observations then S.observe state' :: observations
            else observations
          in
          loop state' (depth + 1) (event :: events) observations violation
    in
    loop s0 0 [] [] None
  in
  let (events, observations, violation), coverage =
    Coverage.collect run
  in
  let depth = List.length events in
  Probe.count probe "sim.walks" 1;
  Probe.count probe "sim.events" depth;
  Probe.span_end probe "walk";
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
  distinct_event_kinds : int;
  violations : int;
}

module Sset = Set.Make (String)

let aggregate ws =
  let runs = List.length ws in
  let total_events = List.fold_left (fun n w -> n + w.depth) 0 ws in
  let max_depth_seen = List.fold_left (fun m w -> max m w.depth) 0 ws in
  let union_coverage =
    List.fold_left (fun c w -> Coverage.union c w.coverage) Coverage.empty ws
  in
  let kinds =
    List.fold_left
      (fun acc w ->
        List.fold_left (fun acc e -> Sset.add (Trace.kind e) acc) acc w.events)
      Sset.empty ws
  in
  let violations =
    List.length (List.filter (fun w -> w.violation <> None) ws)
  in
  { runs;
    total_events;
    mean_depth = (if runs = 0 then 0. else float total_events /. float runs);
    max_depth_seen;
    union_coverage;
    distinct_event_kinds = Sset.cardinal kinds;
    violations }

let pp_aggregate ppf a =
  Fmt.pf ppf
    "runs=%d events=%d mean_depth=%.1f max_depth=%d coverage=%d kinds=%d \
     violations=%d"
    a.runs a.total_events a.mean_depth a.max_depth_seen
    (Coverage.cardinal a.union_coverage)
    a.distinct_event_kinds a.violations
