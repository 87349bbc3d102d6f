open Sandtable

(* Barrier-free work-stealing exploration engine.

   The layer-synchronous engine ([Par_explorer]) pays a full barrier per
   BFS layer: every worker waits for the slowest one at every layer tail,
   and the telemetry "expand/barrier" split shows that wait dominating at
   higher worker counts. This engine removes the barrier entirely:

   - The frontier lives in per-worker queues of state batches, each queue
     a [Frontier] pushed into entry by entry and emptied chunk-wise: a
     batch is one chunk of up to 64 marshalled states. A worker pushes
     each fresh state it finds onto its own queue, its bytes copied from
     the fingerprint arena under that queue's lock.
   - A worker drains its own queue FIFO; when empty it steals a whole
     batch from the tail of another worker's queue (one mutex hold per
     batch, never per state).
   - Termination is a credit scheme over outstanding batches: a single
     atomic counter is incremented by the push that opens a batch, before
     the queue's lock is released, and decremented only after a batch is
     fully expanded (its children were counted first, so the counter can
     only touch zero when no work exists anywhere). [outstanding = 0] is
     therefore stable, and replaces the layer barrier as the engine's
     quiescent signal.
   - Checkpoints, telemetry samples and progress fire at periodic
     "pulses": worker 0 raises a pause flag, the other workers park at
     their next batch boundary (between batches every found state sits in
     some queue), and the paused world is a consistent snapshot: visited
     set + queued states.

   A queued entry is a state's bytes, its entry's reference (the parent of
   every successor it generates) and its depth; pulses and checkpoints
   read the references and depths without unmarshalling a state. With a
   spill window each queue keeps its oldest and newest chunks in memory
   and spills the ones between, past its share of the window. States are
   deduplicated with first-arrival-wins [Shard_set.add_seed] — no (depth,
   pos) merge, so the store never allocates its position and arrival side
   columns.
   Consequences, also spelled out in DESIGN.md: each distinct state is
   expanded exactly once, so [distinct] and [generated] totals at
   exhaustion are schedule- and worker-count-invariant and equal to the
   strict engines'; discovery depths are upper bounds on BFS depth and may
   vary run to run, so [max_depth], depth histograms, counterexample depth
   and any [max_depth]-budgeted totals are not invariant. Violation
   verdicts are invariant on exhaustive runs: every reachable state is
   visited and checked. Use [--strict-bfs] ([Par_explorer]) for
   bit-for-bit sequential equivalence and minimal-depth counterexamples. *)

type worker_stat = Par_explorer.worker_stat = {
  w_expanded : int;
  w_generated : int;
  w_inserted : int;
  w_busy : float;
  w_cache_hit_ratio : float option;
}

type result = {
  base : Explorer.result;
  workers : int;
  pulses : int;  (* quiescent pulses fired (the WS analogue of layers) *)
  steals : int;
  steal_failed : int;
  worker_stats : worker_stat array;
  shard_stats : Shard_set.stat array;
}

(* ---- per-worker batch queue ------------------------------------------- *)

(* A mutex-guarded [Frontier] its owner pushes into and every worker takes
   whole chunks from: a batch is a chunk of up to [batch_size] marshalled
   states, and every chunk but the newest is a full one. The owner takes
   the oldest chunk (FIFO — keeps discovery roughly breadth-first, which
   keeps the duplicate rate close to the strict engine's); a thief takes
   the newest (the work least likely to be hot in the owner's cache). With
   a spill window, chunks between the two ends go to disk. *)
type 's queue = { qlock : Mutex.t; q : 's Frontier.t }

(* how long an idle or parked worker sleeps between polls; stdlib
   [Condition] has no timed wait, and at this grain the poll is invisible
   next to batch expansion times *)
let poll_sleep = 0.0002
let batch_size = 64

(* chunk buffer size: a batch of typical states fits, and a chunk closes
   early when the next state does not *)
let batch_bytes = 16 lsl 10

module Run (S : Spec.S) = struct
  module E = Explorer.Run (S)

  let check ?(pulse_every = 1.0) ?resume pool scenario
      (opts : Explorer.options) =
    E.with_disk opts @@ fun disk ->
    let started = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. started in
    let workers = Pool.size pool in
    let probe = opts.probe in
    let visited = Shard_set.create () in
    let lookup = Shard_set.find_prov_opt visited in
    let store () =
      Shard_set.(length visited, capacity visited, store_bytes visited,
                 probe_steps visited)
    in
    let deadline = Option.map (fun b -> started +. b) opts.time_budget in
    let invariants = E.invariants opts in
    (* the spill window is shared out between the queues; a chunk holds at
       most half a queue's share *)
    let window =
      Option.map (fun d -> max 2 (Frontier.window d / workers)) disk
    in
    let queues : S.state queue array =
      Array.init workers (fun _ ->
          { qlock = Mutex.create ();
            q =
              Frontier.create ?disk ?window ~batch:batch_size
                ~chunk_bytes:batch_bytes () })
    in
    let outstanding = Atomic.make 0 in
    (* [push q] queues one state on [q]; a push that opens a chunk opens a
       batch, counted before the lock lets a thief see it, so 0 is a stable
       "nothing anywhere" signal *)
    let enqueue d push =
      let q = queues.(d) in
      Mutex.protect q.qlock (fun () ->
          let n = Frontier.chunks q.q in
          push q.q;
          if Frontier.chunks q.q > n then Atomic.incr outstanding)
    in
    let queued () =
      Array.fold_left (fun n q -> n + Frontier.length q.q) 0 queues
    in
    (* engine-wide counters; [distinct] is atomic because the max_states
       budget reads it cross-worker, the rest are disjointly indexed *)
    let distinct = Atomic.make 0 in
    let st_expanded = Array.make workers 0 in
    let st_generated = Array.make workers 0 in
    let st_inserted = Array.make workers 0 in
    let st_busy = Array.make workers 0. in
    let caches = Array.init workers (fun _ -> E.cache opts) in
    let st_maxdepth = Array.make workers 0 in
    let gen_base = ref 0 in
    let maxdepth_base = ref 0 in
    let depth_pruned = Atomic.make false in
    let stop = Atomic.make false in
    let outcome_lock = Mutex.create () in
    let outcome_slot = ref None in
    let failure = ref None in
    (* first stop wins; provenance chains never mutate (first-arrival-wins
       insertion), so a violation trace built here is stable even while
       other workers keep inserting *)
    let stop_with o =
      Mutex.lock outcome_lock;
      if !outcome_slot = None then outcome_slot := Some o;
      Mutex.unlock outcome_lock;
      Atomic.set stop true
    in
    let pause = Atomic.make false in
    let parked = Atomic.make 0 in
    let running = Atomic.make workers in
    let pulses = ref 0 in
    let steals = Atomic.make 0 in
    let steals_failed = Atomic.make 0 in
    (* ---- seeding ------------------------------------------------------ *)
    let seed_items =
      match resume with
      | None -> (
        let roots =
          E.seed_roots opts caches.(0) scenario lookup ~insert:(fun fp i ->
              Shard_set.add_seed visited fp (Fp_store.Proot i) ~depth:0)
        in
        Atomic.set distinct (Shard_set.length visited);
        match roots with
        | Ok items -> List.map (fun (s, r) -> (s, r, 0)) items
        | Error v ->
          stop_with (Explorer.Violation v);
          [])
      | Some snap ->
        let frontier =
          E.restore snap scenario lookup ~add:(Shard_set.add_seed visited)
            ~find:(Shard_set.find visited)
            ~set_prov:(Shard_set.set_prov visited)
        in
        Atomic.set distinct snap.Explorer.snap_distinct;
        gen_base := snap.Explorer.snap_generated;
        maxdepth_base := snap.Explorer.snap_max_depth;
        (* a layered snapshot's frontier sits entirely at snap_depth; an
           unordered one's per-state depths are recovered from the seeded
           visited set *)
        let depth_of r =
          match snap.Explorer.snap_mode with
          | Explorer.Layered -> snap.Explorer.snap_depth
          | Explorer.Unordered -> Shard_set.depth visited r
        in
        List.map (fun (s, r) -> (s, r, depth_of r)) frontier
    in
    (* deal the seeds round-robin over the queues *)
    List.iteri
      (fun i (state, r, depth) ->
        enqueue (i mod workers) (fun q ->
            Frontier.push_state ?probe q ~entry:r ~depth state))
      seed_items;
    (* a paused world is quiescent: every worker is between batches, so the
       frontier is exactly the queued states *)
    let snapshot_now ~gen_now ~maxd () =
      let fps = ref [] in
      let mind = ref max_int in
      Array.iter
        (fun q ->
          Mutex.protect q.qlock (fun () ->
              Frontier.iter q.q (fun r d ->
                  fps := Shard_set.fp visited r :: !fps;
                  if d < !mind then mind := d)))
        queues;
      { Explorer.snap_depth = (if !mind = max_int then maxd else !mind);
        snap_frontier = List.rev !fps;
        snap_distinct = Atomic.get distinct;
        snap_generated = gen_now;
        snap_max_depth = maxd;
        snap_mode = Explorer.Unordered;
        snap_visited = Shard_set.iter visited }
    in
    let sum a = Array.fold_left ( + ) 0 a in
    let cur_generated () = !gen_base + sum st_generated in
    let cur_maxdepth () = Array.fold_left max !maxdepth_base st_maxdepth in
    let take ?probe v ~back =
      let q = queues.(v) in
      Mutex.protect q.qlock (fun () -> Frontier.take_chunk ?probe q.q ~back)
    in
    (* ---- worker loop --------------------------------------------------- *)
    let worker_loop w =
      let wp = Probe.worker probe w in
      (* busy and idle time are coalesced into episode spans — one
         "expand" span per contiguous run of batches and one "steal-wait"
         span per idle episode — so trace files stay bounded and the
         metrics timers still carry the exact totals *)
      let busy_t0 = ref None in
      let idle_t0 = ref None in
      let end_busy () =
        match !busy_t0 with
        | None -> ()
        | Some t0 ->
          let t1 = Unix.gettimeofday () in
          Probe.span_at wp "expand" ~t0 ~t1;
          st_busy.(w) <- st_busy.(w) +. (t1 -. t0);
          busy_t0 := None
      in
      let end_idle () =
        match !idle_t0 with
        | None -> ()
        | Some t0 ->
          Probe.span_at wp "steal-wait" ~t0 ~t1:(Unix.gettimeofday ());
          idle_t0 := None
      in
      let tick = ref 0 in
      let expand_one r depth state =
        match opts.max_depth with
        | Some md when depth > md ->
          (* the state was counted at insertion; depth labels here are
             discovery depths (>= BFS depth), so depth-budgeted totals are
             schedule-dependent — see DESIGN.md *)
          Atomic.set depth_pruned true
        | _ ->
          st_expanded.(w) <- st_expanded.(w) + 1;
          let succs = S.next scenario state in
          E.count_fault_kinds wp scenario succs;
          List.iter
            (fun (event, state') ->
              st_generated.(w) <- st_generated.(w) + 1;
              match
                E.arrive ?probe:wp caches.(w) scenario state'
                  ~insert:(fun fp' ->
                    Shard_set.add_seed visited fp'
                      (Fp_store.Pstep (r, event))
                      ~depth:(depth + 1))
              with
              | E.Inserted (fp', sym, Some r') ->
                st_inserted.(w) <- st_inserted.(w) + 1;
                Atomic.incr distinct;
                if Probe.is_on wp then
                  Probe.edge wp ~depth:(depth + 1) ~event:(Some event)
                    ~dup:false ~sym;
                if depth + 1 > st_maxdepth.(w) then
                  st_maxdepth.(w) <- depth + 1;
                Probe.span_begin wp "invariant";
                (match E.first_broken invariants scenario state' with
                | Some inv ->
                  stop_with
                    (Explorer.Violation
                       (E.violation lookup scenario fp' inv ~depth:(depth + 1)))
                | None -> ());
                Probe.span_end wp "invariant";
                (* the state's bytes are still in this domain's own
                   fingerprint arena: nothing since its own fingerprint
                   has marshalled *)
                if S.constraint_ok scenario state' then
                  enqueue w (fun q ->
                      Frontier.push ?probe:wp q ~entry:r' ~depth:(depth + 1));
                (match opts.max_states with
                | Some m when Atomic.get distinct >= m ->
                  stop_with Explorer.Budget_spent
                | _ -> ())
              | E.Recalled sym | E.Inserted (_, sym, None) ->
                Probe.count wp "fp.dup" 1;
                if Probe.is_on wp then
                  Probe.edge wp ~depth:(depth + 1) ~event:(Some event)
                    ~dup:true ~sym)
            succs;
          incr tick;
          if !tick land 15 = 0 then
            match deadline with
            | Some t when Unix.gettimeofday () > t ->
              stop_with Explorer.Budget_spent
            | _ -> ()
      in
      let steal () =
        let rec go k =
          if k >= workers then None
          else
            let v = (w + k) mod workers in
            match take ?probe:wp v ~back:true with
            | Some b ->
              Probe.count wp "steal.count" 1;
              Atomic.incr steals;
              Some b
            | None -> go (k + 1)
        in
        go 1
      in
      (* worker 0 initiates the quiescent pulse: pause the world at batch
         boundaries, then sample/checkpoint/report from a stopped state *)
      let last_pulse = ref started in
      let maybe_pulse () =
        let t = Unix.gettimeofday () in
        if t -. !last_pulse >= pulse_every && not (Atomic.get stop) then begin
          end_busy ();
          Atomic.set pause true;
          while
            Atomic.get parked < Atomic.get running - 1
            && not (Atomic.get stop)
          do
            Unix.sleepf poll_sleep
          done;
          if not (Atomic.get stop) then begin
            incr pulses;
            let frontier = queued () in
            let gen_now = cur_generated () in
            let maxd = cur_maxdepth () in
            if Probe.is_on probe then begin
              let sum f = Array.fold_left (fun n q -> n + f q.q) 0 queues in
              for v = 0 to workers - 1 do
                Probe.gauge (Probe.worker probe v) "queue.depth"
                  (float_of_int (Frontier.length queues.(v).q))
              done;
              E.visited_gauges probe store;
              E.frontier_gauges probe
                ~resident:(sum Frontier.resident_bytes)
                ~spilled:(sum Frontier.spilled_bytes)
            end;
            Probe.layer probe ~depth:maxd ~distinct:(Atomic.get distinct)
              ~generated:gen_now ~frontier ~elapsed:(elapsed ());
            if opts.progress_every > 0 then
              Option.iter
                (fun f ->
                  f { Explorer.distinct = Atomic.get distinct;
                      generated = gen_now; depth = maxd;
                      frontier_len = frontier; elapsed = elapsed () })
                opts.progress;
            if frontier > 0 then
              Option.iter
                (fun hook ->
                  hook !pulses (lazy (snapshot_now ~gen_now ~maxd ())))
                opts.on_layer
          end;
          last_pulse := Unix.gettimeofday ();
          Atomic.set pause false
        end
      in
      let continue = ref true in
      while !continue do
        if Atomic.get stop then continue := false
        else if Atomic.get pause && w <> 0 then begin
          end_busy ();
          end_idle ();
          Atomic.incr parked;
          while Atomic.get pause && not (Atomic.get stop) do
            Unix.sleepf poll_sleep
          done;
          Atomic.decr parked
        end
        else begin
          if w = 0 then maybe_pulse ();
          let batch =
            match take ?probe:wp w ~back:false with
            | Some b -> Some b
            | None -> steal ()
          in
          match batch with
          | Some batch ->
            end_idle ();
            if !busy_t0 = None then busy_t0 := Some (Unix.gettimeofday ());
            let exp0 = st_expanded.(w) in
            Frontier.chunk_iter batch (fun r depth state ->
                if not (Atomic.get stop) then expand_one r depth state);
            Probe.count wp "expand.states" (st_expanded.(w) - exp0);
            (* the children were counted into [outstanding] as they were
               queued, before the parent batch retires *)
            Atomic.decr outstanding
          | None ->
            if Atomic.get outstanding = 0 then continue := false
            else begin
              end_busy ();
              if !idle_t0 = None then idle_t0 := Some (Unix.gettimeofday ());
              Probe.count wp "steal.failed" 1;
              Atomic.incr steals_failed;
              Unix.sleepf poll_sleep
            end
        end
      done;
      end_busy ();
      end_idle ()
    in
    let run_worker w =
      Fun.protect
        ~finally:(fun () -> Atomic.decr running)
        (fun () ->
          try worker_loop w
          with e ->
            Mutex.lock outcome_lock;
            if !failure = None then failure := Some e;
            Mutex.unlock outcome_lock;
            Atomic.set stop true)
    in
    if !outcome_slot = None && Atomic.get outstanding > 0 then
      Pool.run pool run_worker;
    (match !failure with Some e -> raise e | None -> ());
    let outcome =
      match !outcome_slot with
      | Some o -> o
      | None ->
        if Atomic.get depth_pruned then Explorer.Budget_spent
        else Explorer.Exhausted
    in
    Array.iter (fun q -> Frontier.close q.q) queues;
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
          distinct = Atomic.get distinct;
          generated = cur_generated ();
          max_depth = cur_maxdepth ();
          duration = elapsed () };
      workers;
      pulses = !pulses;
      steals = Atomic.get steals;
      steal_failed = Atomic.get steals_failed;
      worker_stats;
      shard_stats = Shard_set.stats visited }
end

let check ?workers ?pool ?pulse_every ?resume (module S : Spec.S) scenario
    opts =
  let module R = Run (S) in
  Pool.with_workers ?workers ?pool (fun p ->
      R.check ?pulse_every ?resume p scenario opts)
