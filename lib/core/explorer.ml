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
   Marshal'd spec states). [snap_kernel] records the fingerprint kernel
   the snapshot's fingerprints came from; resuming under a different
   kernel first rebuilds every fingerprint by replaying provenance chains
   ([migrate_snapshot]). *)
type snapshot = {
  snap_depth : int;
  snap_frontier : Fingerprint.t list;
  snap_distinct : int;
  snap_generated : int;
  snap_max_depth : int;
  snap_kernel : int;
  snap_mode : frontier_mode;
  snap_visited : (Fingerprint.t -> provenance -> int -> unit) -> unit;
}

type 'a frontier_ops = {
  fr_push : 'a -> unit;
  fr_pop : unit -> 'a option;
  fr_length : unit -> int;
  fr_iter : ('a -> unit) -> unit;  (* queue order, non-destructive *)
  fr_close : unit -> unit;
}

type frontier_factory = { make_frontier : 'a. unit -> 'a frontier_ops }

type options = {
  symmetry : bool;
  stop_on_violation : bool;
  max_states : int option;
  max_depth : int option;
  time_budget : float option;
  check_deadlock : bool;
  only_invariants : string list option;
  progress_every : int;
  progress : (stats -> unit) option;
  on_layer : (int -> snapshot Lazy.t -> unit) option;
  frontier : frontier_factory option;
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
    stop_on_violation = true;
    max_states = None;
    max_depth = None;
    time_budget = None;
    check_deadlock = false;
    only_invariants = None;
    progress_every = 0;
    progress = None;
    on_layer = None;
    frontier = None;
    probe = None }

let queue_frontier () =
  let q = Queue.create () in
  { fr_push = (fun x -> Queue.add x q);
    fr_pop = (fun () -> Queue.take_opt q);
    fr_length = (fun () -> Queue.length q);
    fr_iter = (fun f -> Queue.iter f q);
    fr_close = ignore }

type violation = {
  invariant : string;
  events : Trace.t;
  depth : int;
  state_repr : string;
}

type outcome =
  | Exhausted
  | Violation of violation
  | Budget_spent
  | Deadlock of Trace.t

type result = {
  outcome : outcome;
  distinct : int;
  generated : int;
  max_depth : int;
  duration : float;
}

exception Stop of outcome

module Run (S : Spec.S) = struct
  (* [probe] is threaded separately from [opts] so the parallel engines can
     hand each worker its own (domain-local) probe view. The [bool] of
     [fingerprint_info] reports whether symmetry canonicalization changed
     the fingerprint — fed to the profiler's per-edge [sym] flag. All three
     engines fingerprint through this one function. *)
  let fingerprint_info ?probe opts scenario state =
    let b0 = if Probe.is_on probe then Fingerprint.marshalled_bytes () else 0 in
    let fp, sym =
      if opts.symmetry && S.permutable then begin
        Probe.span_begin probe "symmetry-normalize";
        let r =
          Symmetry.canonical_fp_info ?probe ~who:S.name ~key:S.node_key
            ~permute:S.permute ~nodes:scenario.Scenario.nodes state
        in
        Probe.span_end probe "symmetry-normalize";
        r
      end
      else begin
        Probe.span_begin probe "fingerprint";
        let fp = Fingerprint.of_state ~who:S.name state in
        Probe.span_end probe "fingerprint";
        (fp, false)
      end
    in
    if Probe.is_on probe then
      Probe.count probe "fp.bytes" (Fingerprint.marshalled_bytes () - b0);
    (fp, sym)

  let fingerprint ?probe opts scenario state =
    fst (fingerprint_info ?probe opts scenario state)

  (* Walk provenance back to a root, returning (init_index, events). *)
  let trace_of visited idx =
    let rec back idx acc =
      match Fp_store.prov visited idx with
      | Fp_store.Proot i -> i, acc
      | Fp_store.Pstep (pred, event) -> back pred (event :: acc)
    in
    back idx []

  (* Re-execute the recorded event chain concretely to recover the final
     state for reporting. Every recorded event was generated from the stored
     concrete chain, so replay cannot fail. *)
  let final_state scenario init_index events =
    let inits = S.init scenario in
    let s0 = List.nth inits init_index in
    List.fold_left
      (fun state event ->
        match
          List.find_map
            (fun (e, s') ->
              if Trace.equal_event e event then Some s' else None)
            (S.next scenario state)
        with
        | Some s' -> s'
        | None -> invalid_arg "Explorer: unreplayable provenance chain")
      s0 events

  let violation_of visited scenario idx invariant depth =
    let init_index, events = trace_of visited idx in
    let state = final_state scenario init_index events in
    { invariant; events; depth; state_repr = Fmt.str "%a" S.pp_state state }

  (* Recover the concrete states of a checkpointed frontier by replaying
     each entry's provenance chain. Chains share prefixes (they form the
     BFS tree), so every intermediate state is memoized by entry index and
     replayed at most once. *)
  let rebuild_frontier visited scenario fps =
    let memo : (int, S.state) Hashtbl.t = Hashtbl.create 1024 in
    let inits = lazy (S.init scenario) in
    let idx_of fp =
      match Fp_store.find visited fp with
      | Some e -> e
      | None ->
        invalid_arg
          "Explorer: checkpoint frontier references a fingerprint missing \
           from its visited set (corrupted checkpoint?)"
    in
    let state_of fp0 =
      (* walk back to the nearest memoized ancestor (or a root), then
         replay forward, memoizing every step *)
      let rec collect idx pending =
        match Hashtbl.find_opt memo idx with
        | Some s -> s, pending
        | None -> (
          match Fp_store.prov visited idx with
          | Fp_store.Proot i ->
            let s = List.nth (Lazy.force inits) i in
            Hashtbl.replace memo idx s;
            s, pending
          | Fp_store.Pstep (pred, event) ->
            collect pred ((idx, event) :: pending))
      in
      let base, pending = collect (idx_of fp0) [] in
      List.fold_left
        (fun state (idx, event) ->
          match
            List.find_map
              (fun (e, s') ->
                if Trace.equal_event e event then Some s' else None)
              (S.next scenario state)
          with
          | Some s' ->
            Hashtbl.replace memo idx s';
            s'
          | None ->
            invalid_arg
              "Explorer: unreplayable checkpoint provenance chain (spec \
               changed since the checkpoint was written?)")
        base pending
    in
    List.map state_of fps

  (* Rebuild a snapshot whose fingerprints came from a different hash
     kernel: replay every visited entry's provenance chain to its concrete
     state (memoized — each state is computed once, like
     [rebuild_frontier]) and re-fingerprint it under the current kernel.
     The old fingerprints act purely as opaque keys here, so the snapshot
     survives any kernel change, in either direction. Costs roughly the
     exploration work the checkpoint had already banked, and holds the
     checkpointed states in memory while it runs. *)
  let migrate_snapshot scenario opts (snap : snapshot) : snapshot =
    let entries = Fingerprint.Tbl.create 4096 in
    let order = ref [] in
    snap.snap_visited (fun fp prov d ->
        Fingerprint.Tbl.replace entries fp (prov, d);
        order := fp :: !order);
    let order = List.rev !order in
    let memo : S.state Fingerprint.Tbl.t = Fingerprint.Tbl.create 4096 in
    let inits = lazy (S.init scenario) in
    let state_of fp0 =
      let rec collect fp pending =
        match Fingerprint.Tbl.find_opt memo fp with
        | Some s -> s, pending
        | None -> (
          match Fingerprint.Tbl.find_opt entries fp with
          | None ->
            invalid_arg
              "Explorer: checkpoint provenance references a fingerprint \
               missing from its visited set (corrupted checkpoint?)"
          | Some (Root i, _) ->
            let s = List.nth (Lazy.force inits) i in
            Fingerprint.Tbl.replace memo fp s;
            s, pending
          | Some (Step { parent; event }, _) ->
            collect parent ((fp, event) :: pending))
      in
      let base, pending = collect fp0 [] in
      List.fold_left
        (fun state (fp, event) ->
          match
            List.find_map
              (fun (e, s') ->
                if Trace.equal_event e event then Some s' else None)
              (S.next scenario state)
          with
          | Some s' ->
            Fingerprint.Tbl.replace memo fp s';
            s'
          | None ->
            invalid_arg
              "Explorer: unreplayable checkpoint provenance chain (spec \
               changed since the checkpoint was written?)")
        base pending
    in
    let remapped = Fingerprint.Tbl.create 4096 in
    List.iter
      (fun fp ->
        Fingerprint.Tbl.replace remapped fp
          (fingerprint opts scenario (state_of fp)))
      order;
    let remap fp = Fingerprint.Tbl.find remapped fp in
    { snap with
      snap_kernel = Fingerprint.kernel_id;
      snap_frontier = List.map remap snap.snap_frontier;
      snap_visited =
        (fun k ->
          List.iter
            (fun fp ->
              let prov, d = Fingerprint.Tbl.find entries fp in
              let prov =
                match prov with
                | Root _ as p -> p
                | Step { parent; event } ->
                  Step { parent = remap parent; event }
              in
              k (remap fp) prov d)
            order) }

  let check ?resume scenario opts =
    let started = Unix.gettimeofday () in
    let probe = opts.probe in
    (match resume with
    | Some { snap_mode = Unordered; _ } ->
      invalid_arg
        "Explorer: checkpoint frontier mode is unordered (written by the \
         work-stealing engine); the strict-BFS engine cannot restore its \
         layer invariant — resume without --strict-bfs, or start fresh"
    | _ -> ());
    let resume =
      Option.map
        (fun (snap : snapshot) ->
          if snap.snap_kernel = Fingerprint.kernel_id then snap
          else migrate_snapshot scenario opts snap)
        resume
    in
    let visited = Fp_store.create () in
    let fr =
      match opts.frontier with
      | None -> queue_frontier ()
      | Some { make_frontier } -> make_frontier ()
    in
    let generated = ref 0 in
    let max_depth_seen = ref 0 in
    let deadline =
      Option.map (fun budget -> started +. budget) opts.time_budget
    in
    let elapsed () = Unix.gettimeofday () -. started in
    let selected_invariants =
      match opts.only_invariants with
      | None -> S.invariants
      | Some names ->
        List.filter (fun (name, _) -> List.mem name names) S.invariants
    in
    let check_invariants idx depth state =
      Probe.span_begin probe "invariant";
      List.iter
        (fun (name, holds) ->
          if not (holds scenario state) then begin
            let v = violation_of visited scenario idx name depth in
            if opts.stop_on_violation then raise (Stop (Violation v))
          end)
        selected_invariants;
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
    let discover prov depth state =
      let fp, sym = fingerprint_info ?probe opts scenario state in
      match Fp_store.add visited fp prov ~depth with
      | Fp_store.Dup _ ->
        Probe.count probe "fp.dup" 1;
        edge prov depth ~dup:true ~sym
      | Fp_store.Fresh idx ->
        edge prov depth ~dup:false ~sym;
        if depth > !max_depth_seen then max_depth_seen := depth;
        check_invariants idx depth state;
        if S.constraint_ok scenario state then fr.fr_push (state, idx, depth);
        let n = Fp_store.length visited in
        if opts.progress_every > 0 && n mod opts.progress_every = 0 then
          Option.iter
            (fun f ->
              f { distinct = n; generated = !generated; depth;
                  frontier_len = fr.fr_length (); elapsed = elapsed () })
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
      (* the checkpoint may list a child before its parent (visited-set
         iteration order is not topological), so steps whose parent is not
         in yet get a pending predecessor, patched once every entry is in *)
      let pending = ref [] in
      snap.snap_visited (fun fp prov depth ->
          match prov with
          | Root i -> ignore (Fp_store.add visited fp (Fp_store.Proot i) ~depth)
          | Step { parent; event } -> (
            match Fp_store.find visited parent with
            | Some p ->
              ignore
                (Fp_store.add visited fp (Fp_store.Pstep (p, event)) ~depth)
            | None -> (
              match Fp_store.add_pending_step visited fp event ~depth with
              | Fp_store.Fresh idx -> pending := (idx, parent) :: !pending
              | Fp_store.Dup _ -> ())));
      List.iter
        (fun (idx, parent) ->
          match Fp_store.find visited parent with
          | Some p -> Fp_store.set_pred visited idx p
          | None ->
            invalid_arg
              "Explorer: checkpoint provenance references a fingerprint \
               missing from its visited set (corrupted checkpoint?)")
        !pending;
      generated := snap.snap_generated;
      max_depth_seen := snap.snap_max_depth;
      cur_depth := snap.snap_depth;
      let states = rebuild_frontier visited scenario snap.snap_frontier in
      List.iter2
        (fun fp state ->
          let idx = Option.get (Fp_store.find visited fp) in
          fr.fr_push (state, idx, snap.snap_depth))
        snap.snap_frontier states);
    let snapshot_now () =
      let fps = ref [] in
      fr.fr_iter (fun (_, idx, _) -> fps := Fp_store.fp visited idx :: !fps);
      { snap_depth = !cur_depth;
        snap_frontier = List.rev !fps;
        snap_distinct = Fp_store.length visited;
        snap_generated = !generated;
        snap_max_depth = !max_depth_seen;
        snap_kernel = Fingerprint.kernel_id;
        snap_mode = Layered;
        snap_visited =
          (fun k ->
            Fp_store.iter visited (fun _ fp prov depth ->
                let prov =
                  match prov with
                  | Fp_store.Proot i -> Root i
                  | Fp_store.Pstep (pred, event) ->
                    Step { parent = Fp_store.fp visited pred; event }
                in
                k fp prov depth)) }
    in
    let layer_remaining = ref (fr.fr_length ()) in
    Probe.span_begin probe "expand";
    let outcome =
      try
        let continue = ref true in
        while !continue do
          if !layer_remaining = 0 then begin
            match fr.fr_length () with
            | 0 ->
              continue := false;
              (* terminal empty-frontier record, matching the parallel
                 engine's last layer barrier — keeps per-layer event logs
                 identical across engines and worker counts *)
              if Probe.is_on probe then begin
                Probe.gauge probe "visited.entries"
                  (float_of_int (Fp_store.length visited));
                Probe.gauge probe "visited.capacity"
                  (float_of_int (Fp_store.capacity visited));
                Probe.gauge probe "visited.store_bytes"
                  (float_of_int (Fp_store.store_bytes visited))
              end;
              Probe.layer probe ~depth:(!cur_depth + 1)
                ~distinct:(Fp_store.length visited)
                ~generated:!generated ~frontier:0 ~elapsed:(elapsed ())
            | n ->
              layer_remaining := n;
              incr cur_depth;
              Probe.span_end probe "expand";
              (* refresh visited gauges before the layer record so the
                 telemetry sampler reads this layer's values *)
              if Probe.is_on probe then begin
                Probe.gauge probe "visited.entries"
                  (float_of_int (Fp_store.length visited));
                Probe.gauge probe "visited.capacity"
                  (float_of_int (Fp_store.capacity visited));
                Probe.gauge probe "visited.store_bytes"
                  (float_of_int (Fp_store.store_bytes visited))
              end;
              Probe.layer probe ~depth:!cur_depth
                ~distinct:(Fp_store.length visited)
                ~generated:!generated ~frontier:n ~elapsed:(elapsed ());
              Option.iter
                (fun hook -> hook !cur_depth (lazy (snapshot_now ())))
                opts.on_layer;
              Probe.span_begin probe "expand"
          end;
          if !continue then begin
            let state, idx, depth = Option.get (fr.fr_pop ()) in
            decr layer_remaining;
            Probe.count probe "expand.states" 1;
            if over_budget depth then raise (Stop Budget_spent);
            let successors = S.next scenario state in
            if Probe.is_on probe && scenario.Scenario.faults <> None then
              List.iter
                (fun (event, _) ->
                  match Fault_plan.obs_kind event with
                  | Some name -> Probe.count probe name 1
                  | None -> ())
                successors;
            if successors = [] && opts.check_deadlock then begin
              let init_index, events = trace_of visited idx in
              ignore init_index;
              raise (Stop (Deadlock events))
            end;
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
    fr.fr_close ();
    if Probe.is_on probe then begin
      let n = Fp_store.length visited in
      let bytes = Fp_store.store_bytes visited in
      Probe.gauge probe "visited.entries" (float_of_int n);
      Probe.gauge probe "visited.capacity"
        (float_of_int (Fp_store.capacity visited));
      Probe.gauge probe "visited.store_bytes" (float_of_int bytes);
      if n > 0 then
        Probe.gauge probe "visited.bytes_per_state"
          (float_of_int bytes /. float_of_int n);
      Probe.gauge probe "visited.probe_steps"
        (float_of_int (Fp_store.probe_steps visited))
    end;
    { outcome;
      distinct = Fp_store.length visited;
      generated = !generated;
      max_depth = !max_depth_seen;
      duration = elapsed () }
end

let check ?resume (module S : Spec.S) scenario opts =
  let module R = Run (S) in
  R.check ?resume scenario opts

let migrate_snapshot (module S : Spec.S) scenario opts snap =
  let module R = Run (S) in
  R.migrate_snapshot scenario opts snap

let pp_outcome ppf = function
  | Exhausted -> Fmt.string ppf "state space exhausted"
  | Budget_spent -> Fmt.string ppf "budget spent"
  | Deadlock t -> Fmt.pf ppf "deadlock after:@.%a" Trace.pp t
  | Violation v ->
    Fmt.pf ppf "invariant %s violated at depth %d:@.%a@.final state: %s"
      v.invariant v.depth Trace.pp v.events v.state_repr

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
