type provenance =
  | Root of int  (* index into the init-state list *)
  | Step of { parent : Fingerprint.t; event : Trace.event }

(* Which engine discipline produced the frontier. [Layered]: all frontier
   states share [snap_depth] (a strict-BFS layer barrier). [Unordered]:
   frontier states carry heterogeneous depths (a work-stealing quiescent
   point) — each one's depth is recovered from the visited set, and
   [snap_depth] is only the minimum. Strict-BFS engines refuse to resume
   an [Unordered] snapshot (the layer invariant cannot be restored); the
   work-stealing engine resumes either kind. *)
type frontier_mode = Layered | Unordered

(* A quiescent-point image of the explorer: everything needed to continue
   the exploration (bit-for-bit for [Layered] snapshots). Frontier states
   are not stored — each one is recovered on resume by replaying its
   provenance chain (which is deterministic, and keeps snapshots free of
   Marshal'd spec states). *)
type snapshot = {
  snap_depth : int;
  snap_frontier : Fingerprint.t list;
  snap_distinct : int;
  snap_generated : int;
  snap_max_depth : int;
  snap_mode : frontier_mode;
  snap_visited : (Fingerprint.t -> provenance -> int -> unit) -> unit;
}

type options = {
  symmetry : bool;
  max_states : int option;
  max_depth : int option;
  time_budget : float option;
  only_invariants : string list option;
  progress_every : int;
  progress : (stats -> unit) option;
  on_layer : (int -> snapshot Lazy.t -> unit) option;
  spill : Frontier.spill option;
  probe : Probe.t option;
}

and stats = {
  distinct : int;
  generated : int;
  depth : int;
  frontier_len : int;
  elapsed : float;
}

let default =
  { symmetry = true;
    max_states = None;
    max_depth = None;
    time_budget = None;
    only_invariants = None;
    progress_every = 0;
    progress = None;
    on_layer = None;
    spill = None;
    probe = None }

type violation = {
  invariant : string;
  events : Trace.t;
  labels : string list;
  depth : int;
  state_repr : string;
}

type outcome =
  | Exhausted
  | Violation of violation
  | Budget_spent

type result = {
  outcome : outcome;
  distinct : int;
  generated : int;
  max_depth : int;
  duration : float;
}

exception Stop of outcome

module Run (S : Spec.S) = struct
  (* ---- fingerprinting: recall -> canonicalise -> insert -> remember ----

     Every engine offers each generated state to its visited set through
     [arrive]. [probe] is threaded separately from [opts] so the parallel
     engines can hand each worker its own (domain-local) probe view, and
     each worker owns one [cache]. *)

  type cache = Symmetry.cache option

  let cache opts =
    if opts.symmetry && S.permutable then Some (Symmetry.cache ()) else None

  type 'r arrival =
    | Recalled of bool
    | Inserted of Fingerprint.t * bool * 'r

  (* A hit means this worker already canonicalised the same concrete state
     and offered its orbit to the visited set, which never forgets: the
     insert would be a duplicate (first-arrival stores), or keep the
     earlier, smaller (depth, position) arrival (the strict-BFS merge —
     one worker's arrivals come in increasing (depth, position) order). So
     a hit skips the canonicalisation and the store, and counts exactly
     what they would have counted.

     Each arrival is timed as one span, from before its own fingerprint:
     [symmetry-normalize] when it was canonicalised, else [fingerprint]. *)
  let arrive ?probe cache scenario state ~insert =
    let on = Probe.is_on probe in
    let t0 = if on then Unix.gettimeofday () else 0. in
    let b0 = if on then Fingerprint.marshalled_bytes () else 0 in
    let own = Fingerprint.of_state ~who:S.name state in
    match cache with
    | None ->
      if on then begin
        Probe.span_at probe "fingerprint" ~t0 ~t1:(Unix.gettimeofday ());
        Probe.count probe "fp.bytes" (Fingerprint.marshalled_bytes () - b0)
      end;
      Inserted (own, false, insert own)
    | Some c -> (
      match Symmetry.recall ?probe c own with
      | Some sym ->
        if on then
          Probe.span_at probe "fingerprint" ~t0 ~t1:(Unix.gettimeofday ());
        Recalled sym
      | None ->
        let fp, sym, candidates =
          Symmetry.canonicalise ?probe ~who:S.name ~key:S.node_key
            ~permute:S.permute ~nodes:scenario.Scenario.nodes ~own state
        in
        let bytes =
          if on then begin
            Probe.span_at probe "symmetry-normalize" ~t0
              ~t1:(Unix.gettimeofday ());
            Fingerprint.marshalled_bytes () - b0
          end
          else 0
        in
        Probe.count probe "fp.bytes" bytes;
        let result = insert fp in
        Symmetry.remember c own ~sym ~candidates ~bytes;
        Inserted (fp, sym, result))

  let hit_ratio caches = Symmetry.hit_ratio (List.filter_map Fun.id caches)

  let cache_gauge probe caches =
    Option.iter
      (Probe.gauge probe "symmetry.cache_hit_ratio")
      (hit_ratio caches)

  (* ---- provenance -> states, traces and verdicts ----------------------- *)

  (* Each engine hands in a fingerprint-keyed view of its own store. These
     run only on a violation or a resume — never per state. *)
  type lookup = Fingerprint.t -> provenance option

  let missing () =
    invalid_arg
      "Explorer: checkpoint references a fingerprint missing from its \
       visited set (corrupted checkpoint?)"

  let prov_of (lookup : lookup) fp =
    match lookup fp with Some p -> p | None -> missing ()

  (* Every recorded event was generated by [S.next] from the state its
     chain replays to, and events identify transitions uniquely (§3.4), so
     replay can only fail on a checkpoint the spec no longer matches. *)
  let replay_step scenario state event =
    match Spec.step (module S) scenario state event with
    | Some s' -> s'
    | None ->
      invalid_arg
        "Explorer: unreplayable provenance chain (spec changed since the \
         checkpoint was written?)"

  let trace_of lookup fp =
    let rec back fp acc =
      match prov_of lookup fp with
      | Root i -> (i, acc)
      | Step { parent; event } -> back parent (event :: acc)
    in
    back fp []

  (* The replay that recovers a verdict's state also renders each event's
     label, from the state the event leaves. *)
  let replay_labelled lookup scenario fp =
    let init_index, events = trace_of lookup fp in
    let state, labels =
      List.fold_left
        (fun (state, labels) e ->
          (replay_step scenario state e, S.describe state e :: labels))
        (List.nth (S.init scenario) init_index, [])
        events
    in
    (events, List.rev labels, state)

  let violation lookup scenario fp invariant ~depth =
    let events, labels, state = replay_labelled lookup scenario fp in
    { invariant; events; labels; depth;
      state_repr = Fmt.str "%a" S.pp_state state }

  (* Chains share prefixes (they form the BFS tree), so every intermediate
     state is memoized and replayed at most once. *)
  let rebuild_frontier lookup scenario fps =
    let memo = Fingerprint.Tbl.create 1024 in
    let inits = lazy (S.init scenario) in
    let rec state_of fp =
      match Fingerprint.Tbl.find_opt memo fp with
      | Some s -> s
      | None ->
        let s =
          match prov_of lookup fp with
          | Root i -> List.nth (Lazy.force inits) i
          | Step { parent; event } ->
            replay_step scenario (state_of parent) event
        in
        Fingerprint.Tbl.replace memo fp s;
        s
    in
    List.map state_of fps

  (* A snapshot may list a child before its parent (visited-set iteration
     order is not topological), so seeding takes two passes: insert every
     entry, then — every parent in — set each one's provenance, a step's
     parent named by its entry reference. *)
  let restore snap scenario lookup ~add ~find ~set_prov =
    snap.snap_visited (fun fp _ depth ->
        ignore (add fp (Fp_store.Proot 0) ~depth));
    let ref_of fp = match find fp with Some r -> r | None -> missing () in
    snap.snap_visited (fun fp prov depth ->
        set_prov (ref_of fp)
          (match prov with
          | Root i -> Fp_store.Proot i
          | Step { parent; event } -> Fp_store.Pstep (ref_of parent, event))
          ~depth);
    let states = rebuild_frontier lookup scenario snap.snap_frontier in
    List.map2 (fun fp state -> (state, ref_of fp)) snap.snap_frontier states

  let invariants opts =
    match opts.only_invariants with
    | None -> S.invariants
    | Some names ->
      List.filter (fun (name, _) -> List.mem name names) S.invariants

  (* runs once per new state: allocates nothing unless an invariant breaks *)
  let rec first_broken invariants scenario state =
    match invariants with
    | [] -> None
    | (name, holds) :: rest ->
      if holds scenario state then first_broken rest scenario state
      else Some name

  (* the sharded engines' roots; the sequential engine discovers its own
     through the per-state path *)
  let seed_roots opts cache scenario lookup ~insert =
    let probe = opts.probe in
    let invariants = invariants opts in
    let edge ~dup ~sym =
      if Probe.is_on probe then Probe.edge probe ~depth:0 ~event:None ~dup ~sym
    in
    let rec go i items = function
      | [] -> Ok (List.rev items)
      | s :: rest -> (
        match arrive ?probe cache scenario s ~insert:(fun fp -> insert fp i)
        with
        | Recalled sym | Inserted (_, sym, None) ->
          edge ~dup:true ~sym;
          go (i + 1) items rest
        | Inserted (fp, sym, Some r) -> (
          edge ~dup:false ~sym;
          match first_broken invariants scenario s with
          | Some inv -> Error (violation lookup scenario fp inv ~depth:0)
          | None ->
            let items =
              if S.constraint_ok scenario s then (s, r) :: items else items
            in
            go (i + 1) items rest))
    in
    go 0 [] (S.init scenario)

  let refuse_unordered = function
    | Some { snap_mode = Unordered; _ } ->
      invalid_arg
        "Explorer: checkpoint frontier mode is unordered (written by the \
         work-stealing engine); the strict-BFS engines cannot restore its \
         layer invariant — resume without --strict-bfs, or start fresh"
    | Some { snap_mode = Layered; _ } | None -> ()

  (* ---- probe helpers ---------------------------------------------------- *)

  let count_fault_kinds probe scenario successors =
    if Probe.is_on probe && scenario.Scenario.faults <> None then
      List.iter
        (fun (event, _) ->
          match Fault_plan.obs_kind event with
          | Some name -> Probe.count probe name 1
          | None -> ())
        successors

  let frontier_gauges probe ~resident ~spilled =
    if Probe.is_on probe then begin
      Probe.gauge probe "frontier.bytes" (float_of_int resident);
      Probe.gauge probe "frontier.spilled_bytes" (float_of_int spilled)
    end

  let with_disk opts f =
    let disk = Option.map Frontier.open_disk opts.spill in
    Fun.protect
      ~finally:(fun () -> Option.iter Frontier.close_disk disk)
      (fun () -> f disk)

  let visited_gauges ?(final = false) probe store =
    if Probe.is_on probe then begin
      let entries, capacity, bytes, probe_steps = store () in
      Probe.gauge probe "visited.entries" (float_of_int entries);
      Probe.gauge probe "visited.capacity" (float_of_int capacity);
      Probe.gauge probe "visited.store_bytes" (float_of_int bytes);
      if final then begin
        if entries > 0 then
          Probe.gauge probe "visited.bytes_per_state"
            (float_of_int bytes /. float_of_int entries);
        Probe.gauge probe "visited.probe_steps" (float_of_int probe_steps)
      end
    end

  (* ---- the sequential engine --------------------------------------------- *)

  let check ?resume scenario opts =
    with_disk opts @@ fun disk ->
    let started = Unix.gettimeofday () in
    let probe = opts.probe in
    refuse_unordered resume;
    let visited = Fp_store.create () in
    let fr : S.state Frontier.t = Frontier.create ?disk () in
    let generated = ref 0 in
    let max_depth_seen = ref 0 in
    let deadline =
      Option.map (fun budget -> started +. budget) opts.time_budget
    in
    let elapsed () = Unix.gettimeofday () -. started in
    let invariants = invariants opts in
    let provenance = function
      | Fp_store.Proot i -> Root i
      | Fp_store.Pstep (pred, event) ->
        Step { parent = Fp_store.fp visited pred; event }
    in
    let lookup fp =
      Option.map
        (fun idx -> provenance (Fp_store.prov visited idx))
        (Fp_store.find visited fp)
    in
    let store () =
      ( Fp_store.length visited, Fp_store.capacity visited,
        Fp_store.store_bytes visited, Fp_store.probe_steps visited )
    in
    let check_invariants fp depth state =
      Probe.span_begin probe "invariant";
      (match first_broken invariants scenario state with
      | Some name ->
        raise (Stop (Violation (violation lookup scenario fp name ~depth)))
      | None -> ());
      Probe.span_end probe "invariant"
    in
    let over_budget depth =
      (match opts.max_states with
      | Some m -> Fp_store.length visited >= m
      | None -> false)
      || (match opts.max_depth with Some d -> depth > d | None -> false)
      || match deadline with
         | Some t -> Unix.gettimeofday () > t
         | None -> false
    in
    (* profiler edge for one discovery attempt; [is_on] guards the
       [Some event] allocation away from uninstrumented runs *)
    let edge prov depth ~dup ~sym =
      if Probe.is_on probe then
        let event =
          match prov with
          | Fp_store.Proot _ -> None
          | Fp_store.Pstep (_, event) -> Some event
        in
        Probe.edge probe ~depth ~event ~dup ~sym
    in
    let cache = cache opts in
    let discover prov depth state =
      match
        arrive ?probe cache scenario state ~insert:(fun fp ->
            Fp_store.add visited fp prov ~depth)
      with
      | Recalled sym | Inserted (_, sym, Fp_store.Dup _) ->
        Probe.count probe "fp.dup" 1;
        edge prov depth ~dup:true ~sym
      | Inserted (fp, sym, Fp_store.Fresh idx) ->
        edge prov depth ~dup:false ~sym;
        if depth > !max_depth_seen then max_depth_seen := depth;
        check_invariants fp depth state;
        (* the own fingerprint's bytes are still in the arena: nothing
           since has marshalled on this domain *)
        if S.constraint_ok scenario state then
          Frontier.push ?probe fr ~entry:idx ~depth;
        let n = Fp_store.length visited in
        if opts.progress_every > 0 && n mod opts.progress_every = 0 then
          Option.iter
            (fun f ->
              f { distinct = n; generated = !generated; depth;
                  frontier_len = Frontier.length fr; elapsed = elapsed () })
            opts.progress
    in
    (* cur_depth is the layer currently being expanded; layer_remaining its
       unexpanded tail. When it hits zero the frontier holds exactly the
       next layer — the barrier where on_layer (checkpointing) fires. A
       FIFO frontier makes this layered view bit-for-bit identical to the
       plain queue-driven loop. *)
    let cur_depth = ref 0 in
    (match resume with
    | None ->
      List.iteri
        (fun i s -> discover (Fp_store.Proot i) 0 s)
        (S.init scenario)
    | Some snap ->
      let frontier =
        restore snap scenario lookup ~add:(Fp_store.add visited)
          ~find:(Fp_store.find visited) ~set_prov:(Fp_store.set_prov visited)
      in
      generated := snap.snap_generated;
      max_depth_seen := snap.snap_max_depth;
      cur_depth := snap.snap_depth;
      List.iter
        (fun (state, idx) ->
          Frontier.push_state ?probe fr ~entry:idx ~depth:snap.snap_depth state)
        frontier);
    let snapshot_now () =
      let fps = ref [] in
      Frontier.iter fr (fun idx _ -> fps := Fp_store.fp visited idx :: !fps);
      { snap_depth = !cur_depth;
        snap_frontier = List.rev !fps;
        snap_distinct = Fp_store.length visited;
        snap_generated = !generated;
        snap_max_depth = !max_depth_seen;
        snap_mode = Layered;
        snap_visited =
          (fun k ->
            Fp_store.iter visited (fun _ fp prov depth ->
                k fp (provenance prov) depth)) }
    in
    let layer_remaining = ref (Frontier.length fr) in
    let gauges () =
      visited_gauges probe store;
      frontier_gauges probe ~resident:(Frontier.resident_bytes fr)
        ~spilled:(Frontier.spilled_bytes fr)
    in
    Probe.span_begin probe "expand";
    let outcome =
      try
        let continue = ref true in
        while !continue do
          if !layer_remaining = 0 then begin
            match Frontier.length fr with
            | 0 ->
              continue := false;
              (* terminal empty-frontier record, matching the parallel
                 engine's last layer barrier — keeps per-layer event logs
                 identical across engines and worker counts *)
              gauges ();
              Probe.layer probe ~depth:(!cur_depth + 1)
                ~distinct:(Fp_store.length visited)
                ~generated:!generated ~frontier:0 ~elapsed:(elapsed ())
            | n ->
              layer_remaining := n;
              incr cur_depth;
              Probe.span_end probe "expand";
              (* refresh the store and frontier gauges before the layer
                 record so the telemetry sampler reads this layer's
                 values *)
              gauges ();
              Probe.layer probe ~depth:!cur_depth
                ~distinct:(Fp_store.length visited)
                ~generated:!generated ~frontier:n ~elapsed:(elapsed ());
              Option.iter
                (fun hook -> hook !cur_depth (lazy (snapshot_now ())))
                opts.on_layer;
              Probe.span_begin probe "expand"
          end;
          if !continue then begin
            let state, idx, depth = Option.get (Frontier.pop ?probe fr) in
            decr layer_remaining;
            Probe.count probe "expand.states" 1;
            if over_budget depth then raise (Stop Budget_spent);
            let successors = S.next scenario state in
            count_fault_kinds probe scenario successors;
            List.iter
              (fun (event, state') ->
                incr generated;
                discover (Fp_store.Pstep (idx, event)) (depth + 1) state')
              successors
          end
        done;
        Exhausted
      with Stop o -> o
    in
    Probe.span_end probe "expand";
    Frontier.close fr;
    visited_gauges ~final:true probe store;
    cache_gauge probe [ cache ];
    { outcome;
      distinct = Fp_store.length visited;
      generated = !generated;
      max_depth = !max_depth_seen;
      duration = elapsed () }
end

let check ?resume (module S : Spec.S) scenario opts =
  let module R = Run (S) in
  R.check ?resume scenario opts

let pp_outcome ppf = function
  | Exhausted -> Fmt.string ppf "state space exhausted"
  | Budget_spent -> Fmt.string ppf "budget spent"
  | Violation v ->
    Fmt.pf ppf "invariant %s violated at depth %d:@.%a@.final state: %s"
      v.invariant v.depth (Trace.pp_labelled v.labels) v.events v.state_repr

let pp_result ppf r =
  Fmt.pf ppf "@[<v>%a@,distinct=%d generated=%d max_depth=%d duration=%.2fs@]"
    pp_outcome r.outcome r.distinct r.generated r.max_depth r.duration

type stateless_result = {
  sl_executions : int;
  sl_states_visited : int;
  sl_distinct : int;
  sl_duration : float;
}

let stateless_dfs (module S : Spec.S) scenario ~max_depth ?max_visits () =
  let started = Unix.gettimeofday () in
  let seen : unit Fingerprint.Tbl.t = Fingerprint.Tbl.create 4096 in
  let visits = ref 0 in
  let executions = ref 0 in
  let budget_left () =
    match max_visits with Some m -> !visits < m | None -> true
  in
  let exception Done in
  let visit state =
    incr visits;
    let fp = Fingerprint.of_state state in
    if not (Fingerprint.Tbl.mem seen fp) then
      Fingerprint.Tbl.replace seen fp ();
    if not (budget_left ()) then raise Done
  in
  let rec dfs depth state =
    visit state;
    if depth >= max_depth then incr executions
    else
      match S.next scenario state with
      | [] -> incr executions
      | successors -> List.iter (fun (_, s') -> dfs (depth + 1) s') successors
  in
  (try List.iter (fun s -> dfs 0 s) (S.init scenario) with Done -> ());
  { sl_executions = !executions;
    sl_states_visited = !visits;
    sl_distinct = Fingerprint.Tbl.length seen;
    sl_duration = Unix.gettimeofday () -. started }
