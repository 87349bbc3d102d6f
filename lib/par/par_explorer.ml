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

module Run (S : Spec.S) = struct
  (* An entry's [pos] (packed inside Shard_set) is the state's discovery
     position within its layer — (frontier index of the parent, successor
     index) — i.e. the order sequential BFS would first reach it.
     [Shard_set.merge] keeps the minimal (depth, pos) entry, so provenance
     chains, violation choice and early-stop accounting all coincide with
     the sequential explorer regardless of worker count.

     The concrete state the winning provenance chain replays to must be
     the one the next layer expands: under symmetry reduction two distinct
     concrete states canonicalize to the same fingerprint, and if the
     frontier kept whichever variant won the insertion race while the
     merge kept the minimal-pos provenance, the next layer's events would
     be generated from a state the stored chain does not replay to. So a
     winning arrival ([Fresh] or [Dup_replaced]) that satisfies the state
     constraint — evaluated while it is still a live state — appends its
     bytes, copied from the fingerprint arena, to its worker's [building]
     frontier, and the merge records, together with the provenance, the
     slot it went to: (position in that frontier) * workers + worker.
     Worker [w] expands the [w]-th contiguous range of the layer, in
     (p, j) order, so the building frontiers taken in worker order list
     every winning arrival in (p, j) order. At the barrier the next layer
     is that sequence filtered to the entries whose recorded slot is
     still this one ([Frontier.transfer]): a displaced arrival, or one
     whose winner broke the constraint, is dropped. No state is
     unmarshalled before its expansion, and with a spill window the
     layer being built spills like the one being expanded.

     The layer is a [Frontier] read by index: worker [w] expands entries
     [lo, hi) of it, and an entry's reference names the parent of every
     successor it generates. *)

  module E = Explorer.Run (S)

  let check ?resume pool scenario (opts : Explorer.options) =
    E.with_disk opts @@ fun disk ->
    let started = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. started in
    let workers = Pool.size pool in
    let probe = opts.probe in
    E.refuse_unordered resume;
    let visited = Shard_set.create () in
    let keep = S.constraint_ok scenario in
    let lookup = Shard_set.find_prov_opt visited in
    let store () =
      Shard_set.(length visited, capacity visited, store_bytes visited,
                 probe_steps visited)
    in
    let deadline = Option.map (fun b -> started +. b) opts.time_budget in
    let rep = E.reports opts scenario ~resume ~store ~started in
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
    let outcome = ref None in
    let frontier : S.state Frontier.t ref = ref (Frontier.create ?disk ()) in
    (* the workers share the window for the layer being built *)
    let share =
      Option.map (fun d -> max 2 (Frontier.window d / workers)) disk
    in
    let seed items ~depth =
      List.iter
        (fun (state, r) ->
          Frontier.push_state ?probe !frontier ~entry:r ~depth state)
        items
    in
    let depth = ref 0 in
    (match resume with
    | Some snap ->
      (* seed from a layer-barrier checkpoint: entries' pos is never
         consulted again (only same-depth insertions compare positions,
         and every future candidate is strictly deeper) *)
      seed ~depth:snap.Explorer.snap_depth
        (E.restore snap scenario lookup ~add:(Shard_set.add_seed visited)
           ~find:(Shard_set.find visited)
           ~set_prov:(Shard_set.set_prov visited));
      distinct_total := snap.Explorer.snap_distinct;
      gen_prev := snap.Explorer.snap_generated;
      max_depth_seen := snap.Explorer.snap_max_depth;
      depth := snap.Explorer.snap_depth
    | None ->
      (* roots: discovered in order, exactly like sequential BFS *)
      (match
         E.seed_roots rep caches.(0) lookup ~insert:(fun fp i ->
             Shard_set.add_seed visited fp (Fp_store.Proot i) ~depth:0)
       with
      | Ok items -> seed items ~depth:0
      | Error v -> outcome := Some (Explorer.Violation v));
      distinct_total := Shard_set.length visited);
    let snapshot_now () =
      let fps = ref [] in
      Frontier.iter !frontier (fun r _ ->
          fps := Shard_set.fp visited r :: !fps);
      { Explorer.snap_depth = !depth;
        snap_frontier = List.rev !fps;
        snap_distinct = !distinct_total;
        snap_generated = !gen_prev;
        snap_max_depth = !max_depth_seen;
        snap_mode = Explorer.Layered;
        snap_visited = Shard_set.iter visited }
    in
    (* ---- layer-synchronous BFS ---- *)
    let abort = Atomic.make false in
    while !outcome = None && Frontier.length !frontier > 0 do
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
        let n = Frontier.length fr in
        let ranges = Array.of_list (Pool.split ~chunks:workers ~len:n) in
        let succ_counts = Array.make n 0 in
        (* per worker: fresh entries, and (reference, invariant) for each
           fresh entry that broke one *)
        let layer_ins = Array.make workers 0 in
        let cands : (int * string) list array = Array.make workers [] in
        let layer_gen = Array.make workers 0 in
        let building : S.state Frontier.t array =
          Array.init workers (fun _ -> Frontier.create ?disk ?window:share ())
        in
        (* per-worker layer end times, seeded with the layer start so idle
           workers (empty range) count as waiting the whole layer; the
           coordinator turns [wend.(w) .. barrier] into barrier-wait spans *)
        let wend = Array.make workers (Probe.now probe) in
        Pool.run pool (fun w ->
            if w < Array.length ranges then begin
              let lo, hi = ranges.(w) in
              let wp = Probe.worker probe w in
              let t0 = Unix.gettimeofday () in
              let my_cands = ref [] in
              let gen = ref 0 in
              let ins = ref 0 in
              let expanded = ref 0 in
              let mine = building.(w) in
              (* the state's bytes are still in this domain's own
                 fingerprint arena: nothing since has marshalled *)
              let build r' state' =
                if keep state' then
                  Frontier.push ?probe:wp mine ~entry:r' ~depth:(d + 1)
              in
              (try
                 Frontier.iter_states ?probe:wp fr ~lo ~hi
                   (fun p r _ state ->
                     if Atomic.get abort then raise Exit;
                     incr expanded;
                     let succs = S.next scenario state in
                     succ_counts.(p) <- List.length succs;
                     E.count_fault_kinds wp scenario succs;
                     List.iteri
                       (fun j (event, state') ->
                         incr gen;
                         let prov = Fp_store.Pstep (r, event) in
                         match
                           E.arrive ?probe:wp caches.(w) scenario state'
                             ~insert:(fun fp' ->
                               Shard_set.merge visited fp' ~prov
                                 ~depth:(d + 1) ~pos:(p, j)
                                 ~slot:((Frontier.length mine * workers) + w))
                         with
                         | E.Inserted (_, sym, Shard_set.Fresh r') -> (
                           build r' state';
                           incr ins;
                           match
                             E.report_arrival rep wp state' ~prov
                               ~depth:(d + 1) ~dup:false ~sym
                           with
                           | Some inv -> my_cands := (r', inv) :: !my_cands
                           | None -> ())
                         | E.Recalled sym
                         | E.Inserted (_, sym, Shard_set.Dup_kept) ->
                           ignore
                             (E.report_arrival rep wp state' ~prov
                                ~depth:(d + 1) ~dup:true ~sym)
                         | E.Inserted
                             ( _, sym,
                               Shard_set.Dup_replaced
                                 { entry; old_event; old_depth } ) ->
                           build entry state';
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
                     | _ -> ())
               with Exit -> ());
              layer_ins.(w) <- !ins;
              cands.(w) <- !my_cands;
              layer_gen.(w) <- !gen;
              Probe.count wp "expand.states" !expanded;
              st_expanded.(w) <- st_expanded.(w) + !expanded;
              st_generated.(w) <- st_generated.(w) + !gen;
              st_inserted.(w) <- st_inserted.(w) + !ins;
              (* the barrier-wait span starts where this one ends *)
              let t1 = Unix.gettimeofday () in
              Probe.span_at wp "expand" ~t0 ~t1;
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
        let layer_inserted = Array.fold_left ( + ) 0 layer_ins in
        let layer_generated = Array.fold_left ( + ) 0 layer_gen in
        let close_building () = Array.iter Frontier.close building in
        if Atomic.get abort then begin
          close_building ();
          (* mid-layer deadline: report what actually got explored *)
          distinct_total := !distinct_total + layer_inserted;
          gen_prev := !gen_prev + layer_generated;
          if layer_inserted > 0 then max_depth_seen := d + 1;
          outcome := Some Explorer.Budget_spent
        end
        else begin
          incr layers;
          (* earliest candidate in sequential discovery order wins *)
          let key (r, _) = Shard_set.find_pos visited r in
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
          | Some ((r, inv) as cand) ->
            close_building ();
            (* reconstruct the exact counters sequential BFS would have
               reported when it raised Stop at this discovery position:
               the layer's entries found at or before it (the set is
               quiescent here) and the successors generated up to it *)
            let ((p, j) as vpos) = key cand in
            let before =
              Shard_set.count_upto visited ~depth:(d + 1) ~pos:vpos
            in
            distinct_total := !distinct_total + before;
            let gen_here = ref 0 in
            for q = 0 to p - 1 do
              gen_here := !gen_here + succ_counts.(q)
            done;
            gen_prev := !gen_prev + !gen_here + j + 1;
            if before > 0 then max_depth_seen := d + 1;
            outcome :=
              Some
                (Explorer.Violation
                   (E.violation lookup scenario (Shard_set.fp visited r) inv
                      ~depth:(d + 1)))
          | None ->
            distinct_total := !distinct_total + layer_inserted;
            gen_prev := !gen_prev + layer_generated;
            if layer_inserted > 0 then max_depth_seen := d + 1;
            (* the layer's peak: the one expanded and the one built *)
            let total f =
              Array.fold_left (fun n b -> n + f b) (f fr) building
            in
            E.frontier_gauges probe ~resident:(total Frontier.resident_bytes)
              ~spilled:(total Frontier.spilled_bytes);
            Frontier.close fr;
            (* the next layer: each entry's arrival whose slot won the
               (depth, pos) merge, so its bytes are the state its
               provenance replays to *)
            let next = Frontier.create ?disk () in
            Array.iteri
              (fun w b ->
                Frontier.transfer ?probe b ~into:next ~keep:(fun k r ->
                    Shard_set.arrival visited r = (k * workers) + w))
              building;
            frontier := next;
            depth := d + 1;
            (* the natural barrier: no layer in flight, frontier complete *)
            E.report_barrier rep ~layer:(d + 1) ~depth:(d + 1)
              ~distinct:!distinct_total ~generated:!gen_prev
              ~frontier:(Frontier.length next)
              ~resident:(Frontier.resident_bytes next)
              ~spilled:(Frontier.spilled_bytes next) (lazy (snapshot_now ()))
        end
      end
    done;
    let outcome =
      match !outcome with Some o -> o | None -> Explorer.Exhausted
    in
    Frontier.close !frontier;
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
