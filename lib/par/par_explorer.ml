open Sandtable

type worker_stat = {
  w_expanded : int;
  w_generated : int;
  w_inserted : int;
  w_busy : float;
  w_cache_hit_ratio : float option;
}

type result = {
  base : Explorer.result;
  workers : int;
  layers : int;
  worker_stats : worker_stat array;
  shard_stats : Shard_set.stat array;
}

(* entries are named by their Shard_set reference *)
type candidate =
  | Broken of int * string  (* newly inserted entry, invariant *)
  | Dead of int * int  (* frontier index with no successors, its entry *)

module Run (S : Spec.S) = struct
  (* An entry's [pos] (packed inside Shard_set) is the state's discovery
     position within its layer — (frontier index of the parent, successor
     index) — i.e. the order sequential BFS would first reach it.
     [Shard_set.merge] keeps the minimal (depth, pos) entry, so provenance
     chains, violation choice and early-stop accounting all coincide with
     the sequential explorer regardless of worker count.

     The concrete state the winning provenance chain replays to is stored
     alongside it, [Some] only for states in the layer currently being
     built. It must live inside the entry: under symmetry reduction two
     distinct concrete states canonicalize to the same fingerprint, and if
     the frontier kept whichever variant won the insertion race while the
     merge kept the minimal-pos provenance, the next layer's events would
     be generated from a state the stored chain does not replay to.
     [Shard_set.merge] selects state and provenance together under the
     shard lock; the barrier checks the state constraint (winners only —
     checking every generated candidate would be measurably slower) and
     [take_state] clears it once the next frontier is built, bounding
     memory to one layer of states.

     A frontier item is a state and its entry's reference, which names the
     parent of every successor it generates. *)

  module E = Explorer.Run (S)

  let check ?resume pool scenario (opts : Explorer.options) =
    let started = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. started in
    let workers = Pool.size pool in
    let probe = opts.probe in
    E.refuse_unordered resume;
    let visited : S.state Shard_set.t = Shard_set.create () in
    let lookup = Shard_set.find_prov_opt visited in
    let store () =
      Shard_set.(length visited, capacity visited, store_bytes visited,
                 probe_steps visited)
    in
    let deadline = Option.map (fun b -> started +. b) opts.time_budget in
    let invariants = E.invariants opts in
    (* per-worker accumulators, disjointly indexed; the pool barrier
       publishes them to the coordinating domain *)
    let st_expanded = Array.make workers 0 in
    let st_generated = Array.make workers 0 in
    let st_inserted = Array.make workers 0 in
    let st_busy = Array.make workers 0. in
    let caches = Array.init workers (fun _ -> E.cache opts) in
    let distinct_total = ref 0 in
    let gen_prev = ref 0 in
    let max_depth_seen = ref 0 in
    let layers = ref 0 in
    let last_progress = ref 0 in
    let progress_tick depth ~frontier_len =
      if opts.progress_every > 0 then begin
        let n = !distinct_total in
        if n / opts.progress_every > !last_progress / opts.progress_every then begin
          last_progress := n;
          Option.iter
            (fun f ->
              f { Explorer.distinct = n; generated = !gen_prev; depth;
                  frontier_len; elapsed = elapsed () })
            opts.progress
        end
      end
    in
    let outcome = ref None in
    let frontier = ref [||] in
    let depth = ref 0 in
    (match resume with
    | Some snap ->
      (* seed from a layer-barrier checkpoint: entries' pos is never
         consulted again (only same-depth insertions compare positions,
         and every future candidate is strictly deeper) *)
      frontier :=
        Array.of_list
          (E.restore snap scenario lookup ~add:(Shard_set.add_seed visited)
             ~find:(Shard_set.find visited)
             ~set_prov:(Shard_set.set_prov visited));
      distinct_total := snap.Explorer.snap_distinct;
      gen_prev := snap.Explorer.snap_generated;
      max_depth_seen := snap.Explorer.snap_max_depth;
      last_progress := snap.Explorer.snap_distinct;
      depth := snap.Explorer.snap_depth
    | None ->
      (* roots: discovered in order, exactly like sequential BFS *)
      (match
         E.seed_roots opts caches.(0) scenario lookup ~insert:(fun fp i ->
             Shard_set.add_seed visited fp (Fp_store.Proot i) ~depth:0)
       with
      | Ok items -> frontier := Array.of_list items
      | Error v -> outcome := Some (Explorer.Violation v));
      distinct_total := Shard_set.length visited);
    let snapshot_now () =
      { Explorer.snap_depth = !depth;
        snap_frontier =
          List.map (fun (_, r) -> Shard_set.fp visited r) (Array.to_list !frontier);
        snap_distinct = !distinct_total;
        snap_generated = !gen_prev;
        snap_max_depth = !max_depth_seen;
        snap_mode = Explorer.Layered;
        snap_visited = Shard_set.iter visited }
    in
    (* ---- layer-synchronous BFS ---- *)
    let abort = Atomic.make false in
    while !outcome = None && Array.length !frontier > 0 do
      let d = !depth in
      let over_layer_budget =
        (match opts.max_states with
        | Some m -> !distinct_total >= m
        | None -> false)
        || (match opts.max_depth with Some md -> d > md | None -> false)
        ||
        match deadline with
        | Some t -> Unix.gettimeofday () > t
        | None -> false
      in
      if over_layer_budget then outcome := Some Explorer.Budget_spent
      else begin
        let fr = !frontier in
        let n = Array.length fr in
        let ranges = Array.of_list (Pool.split ~chunks:workers ~len:n) in
        let succ_counts = Array.make n 0 in
        let inserted : int list array = Array.make workers [] in
        let cands : candidate list array = Array.make workers [] in
        let layer_gen = Array.make workers 0 in
        (* per-worker layer end times, seeded with the layer start so idle
           workers (empty range) count as waiting the whole layer; the
           coordinator turns [wend.(w) .. barrier] into barrier-wait spans *)
        let layer_t0 = if Probe.is_on probe then Unix.gettimeofday () else 0. in
        let wend = Array.make workers layer_t0 in
        Pool.run pool (fun w ->
            if w < Array.length ranges then begin
              let lo, hi = ranges.(w) in
              let wp = Probe.worker probe w in
              let t0 = Unix.gettimeofday () in
              Probe.span_begin wp "expand";
              let my_inserted = ref [] in
              let my_cands = ref [] in
              let gen = ref 0 in
              let ins = ref 0 in
              let expanded = ref 0 in
              (try
                 for p = lo to hi - 1 do
                   if Atomic.get abort then raise Exit;
                   let state, r = fr.(p) in
                   incr expanded;
                   let succs = S.next scenario state in
                   succ_counts.(p) <- List.length succs;
                   E.count_fault_kinds wp scenario succs;
                   if succs = [] && opts.check_deadlock then
                     my_cands := Dead (p, r) :: !my_cands;
                   List.iteri
                     (fun j (event, state') ->
                       incr gen;
                       match
                         E.arrive ?probe:wp caches.(w) scenario state'
                           ~insert:(fun fp' ->
                             Shard_set.merge visited fp'
                               ~prov:(Fp_store.Pstep (r, event))
                               ~depth:(d + 1) ~pos:(p, j) ~state:state')
                       with
                       | E.Inserted (_, sym, Shard_set.Fresh r') ->
                         incr ins;
                         if Probe.is_on wp then
                           Probe.edge wp ~depth:(d + 1) ~event:(Some event)
                             ~dup:false ~sym;
                         my_inserted := r' :: !my_inserted;
                         Probe.span_begin wp "invariant";
                         (match E.first_broken invariants scenario state' with
                         | Some inv ->
                           my_cands := Broken (r', inv) :: !my_cands
                         | None -> ());
                         Probe.span_end wp "invariant"
                       | E.Recalled sym
                       | E.Inserted (_, sym, Shard_set.Dup_kept) ->
                         Probe.count wp "fp.dup" 1;
                         if Probe.is_on wp then
                           Probe.edge wp ~depth:(d + 1) ~event:(Some event)
                             ~dup:true ~sym
                       | E.Inserted
                           ( _, sym,
                             Shard_set.Dup_replaced { old_event; old_depth } )
                         ->
                         (* this arrival is the minimal (depth, pos) edge —
                            the one sequential BFS keeps; the displaced
                            discovering edge, already reported fresh by the
                            insertion-race winner, is the real duplicate *)
                         Probe.count wp "fp.dup" 1;
                         if Probe.is_on wp then begin
                           Probe.edge wp ~depth:(d + 1) ~event:(Some event)
                             ~dup:false ~sym;
                           Probe.edge_fix wp ~depth:old_depth
                             ~event:old_event
                         end)
                     succs;
                   match deadline with
                   | Some t
                     when (p - lo) land 63 = 63 && Unix.gettimeofday () > t ->
                     Atomic.set abort true
                   | _ -> ()
                 done
               with Exit -> ());
              inserted.(w) <- !my_inserted;
              cands.(w) <- !my_cands;
              layer_gen.(w) <- !gen;
              Probe.count wp "expand.states" !expanded;
              st_expanded.(w) <- st_expanded.(w) + !expanded;
              st_generated.(w) <- st_generated.(w) + !gen;
              st_inserted.(w) <- st_inserted.(w) + !ins;
              (* close the expand span before taking t1 so the barrier-wait
                 span (which starts at t1) never overlaps it in the trace *)
              Probe.span_end wp "expand";
              let t1 = Unix.gettimeofday () in
              wend.(w) <- t1;
              st_busy.(w) <- st_busy.(w) +. (t1 -. t0)
            end);
        if Probe.is_on probe then begin
          let barrier_t = Unix.gettimeofday () in
          for w = 0 to workers - 1 do
            Probe.span_at (Probe.worker probe w) "barrier-wait"
              ~t0:wend.(w) ~t1:barrier_t
          done
        end;
        let all_inserted =
          Array.fold_right (fun l acc -> List.rev_append l acc) inserted []
        in
        let layer_generated = Array.fold_left ( + ) 0 layer_gen in
        if Atomic.get abort then begin
          (* mid-layer deadline: report what actually got explored *)
          distinct_total := !distinct_total + List.length all_inserted;
          gen_prev := !gen_prev + layer_generated;
          if all_inserted <> [] then max_depth_seen := d + 1;
          outcome := Some Explorer.Budget_spent
        end
        else begin
          incr layers;
          (* earliest candidate in sequential discovery order wins: a
             deadlock at frontier index p orders as (p, -1), before any
             successor (p, j) of the same state *)
          let key = function
            | Dead (p, _) -> p, -1
            | Broken (r, _) -> Shard_set.find_pos visited r
          in
          let best =
            Array.fold_left
              (fun acc l ->
                List.fold_left
                  (fun acc c ->
                    match acc with
                    | None -> Some c
                    | Some b -> if compare (key c) (key b) < 0 then Some c
                                else acc)
                  acc l)
              None cands
          in
          match best with
          | Some cand ->
            (* reconstruct the exact counters sequential BFS would have
               reported when it raised Stop at this discovery position *)
            let vpos = key cand in
            let before =
              List.length
                (List.filter
                   (fun r -> compare (Shard_set.find_pos visited r) vpos <= 0)
                   all_inserted)
            in
            distinct_total := !distinct_total + before;
            let p, j = vpos in
            let gen_here = ref 0 in
            for q = 0 to p - 1 do
              gen_here := !gen_here + succ_counts.(q)
            done;
            gen_prev := !gen_prev + !gen_here + (if j >= 0 then j + 1 else 0);
            if before > 0 then max_depth_seen := d + 1;
            outcome :=
              Some
                (match cand with
                | Broken (r, inv) ->
                  Explorer.Violation
                    (E.violation lookup scenario (Shard_set.fp visited r) inv
                       ~depth:(d + 1))
                | Dead (_, r) ->
                  E.deadlock lookup scenario (Shard_set.fp visited r))
          | None ->
            distinct_total := !distinct_total + List.length all_inserted;
            gen_prev := !gen_prev + layer_generated;
            if all_inserted <> [] then max_depth_seen := d + 1;
            (* the table entry won the (depth, pos) merge, so its state is
               the one its provenance replays to — take it (which clears
               the stored copy) and keep it only if it satisfies the
               exploration constraint *)
            let next =
              List.filter_map
                (fun r ->
                  match Shard_set.take_state visited r with
                  | Some (pos, s) when S.constraint_ok scenario s ->
                    Some (pos, s, r)
                  | Some _ | None -> None)
                all_inserted
            in
            let next =
              List.sort (fun (a, _, _) (b, _, _) -> compare a b) next
            in
            frontier := Array.of_list (List.map (fun (_, s, r) -> s, r) next);
            depth := d + 1;
            (* refresh visited gauges before the layer record so the
               telemetry sampler reads this layer's values *)
            E.visited_gauges probe store;
            Probe.layer probe ~depth:(d + 1) ~distinct:!distinct_total
              ~generated:!gen_prev ~frontier:(Array.length !frontier)
              ~elapsed:(elapsed ());
            progress_tick (d + 1) ~frontier_len:(Array.length !frontier);
            (* the natural barrier: no layer in flight, frontier complete *)
            if Array.length !frontier > 0 then
              Option.iter
                (fun hook -> hook (d + 1) (lazy (snapshot_now ())))
                opts.on_layer
        end
      end
    done;
    let outcome =
      match !outcome with Some o -> o | None -> Explorer.Exhausted
    in
    E.visited_gauges ~final:true probe store;
    E.cache_gauge probe (Array.to_list caches);
    let worker_stats =
      Array.init workers (fun w ->
          { w_expanded = st_expanded.(w);
            w_generated = st_generated.(w);
            w_inserted = st_inserted.(w);
            w_busy = st_busy.(w);
            w_cache_hit_ratio = E.hit_ratio [ caches.(w) ] })
    in
    { base =
        { Explorer.outcome;
          distinct = !distinct_total;
          generated = !gen_prev;
          max_depth = !max_depth_seen;
          duration = elapsed () };
      workers;
      layers = !layers;
      worker_stats;
      shard_stats = Shard_set.stats visited }
end

let check ?workers ?pool ?resume (module S : Spec.S) scenario opts =
  let module R = Run (S) in
  Pool.with_workers ?workers ?pool (fun p -> R.check ?resume p scenario opts)

let states_per_sec ws =
  if ws.w_busy <= 0. then 0. else float ws.w_generated /. ws.w_busy

let pp_cache_hits ppf = function
  | Some r -> Fmt.pf ppf " orbit-cache hits=%.1f%%" (100. *. r)
  | None -> ()

let pp_worker_stats ppf stats =
  Array.iteri
    (fun w ws ->
      Fmt.pf ppf "worker %d: expanded=%d generated=%d inserted=%d busy=%.2fs \
                  (%.0f states/s)%a@."
        w ws.w_expanded ws.w_generated ws.w_inserted ws.w_busy
        (states_per_sec ws)
        pp_cache_hits ws.w_cache_hit_ratio)
    stats
