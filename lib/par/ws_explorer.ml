open Sandtable

(* Barrier-free work-stealing exploration engine.

   The layer-synchronous engine ([Par_explorer]) pays a full barrier per
   BFS layer: every worker waits for the slowest one at every layer tail,
   and the telemetry "expand/barrier" split shows that wait dominating at
   higher worker counts. This engine removes the barrier entirely:

   - The frontier lives in per-worker queues of fixed-size state batches.
     A generated state is routed to the worker that owns its fingerprint
     shard — [Fingerprint.shard_key], the same and only routing function
     the visited set uses — so each worker touches a disjoint slice of the
     shard space and dedup locality follows for free.
   - A worker drains its own queue FIFO; when empty it steals a whole
     batch from the tail of another worker's queue (one mutex hold per
     batch, never per state).
   - Termination is a credit scheme over outstanding batches: a single
     atomic counter is incremented before a batch becomes visible in any
     queue and decremented only after the batch is fully expanded and its
     child batches are enqueued (children before parent, so the counter
     can only touch zero when no work exists anywhere). [outstanding = 0]
     is therefore stable, and replaces the layer barrier as the engine's
     quiescent signal.
   - Checkpoints, telemetry samples and progress fire at periodic
     "pulses": worker 0 raises a pause flag, the other workers park at
     their next batch boundary (outboxes flushed — between batches every
     routed state sits in some queue), and the paused world is a
     consistent snapshot: visited set + queued states.

   A queued item is a state, its entry's reference (the parent of every
   successor it generates) and its depth. States are deduplicated with
   first-arrival-wins [Shard_set.add_seed] — no (depth, pos) merge, so the
   store never allocates its position and state side columns.
   Consequences, also spelled out in DESIGN.md: each distinct state is
   expanded exactly once, so [distinct] and [generated] totals at
   exhaustion are schedule- and worker-count-invariant and equal to the
   strict engines'; discovery depths are upper bounds on BFS depth and may
   vary run to run, so [max_depth], depth histograms, counterexample depth
   and any [max_depth]-budgeted totals are not invariant. Violation and
   deadlock verdicts are invariant on exhaustive runs: every reachable
   state is visited and checked. Use [--strict-bfs] ([Par_explorer]) for
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

(* A mutex-guarded ring of batches. The owner pops from the head (FIFO —
   keeps discovery roughly breadth-first, which keeps the duplicate rate
   close to the strict engine's); a thief takes from the tail (the work
   least likely to be hot in the owner's cache). Item counts are kept for
   the queue-depth gauge. *)
type 'a queue = {
  qlock : Mutex.t;
  mutable qbuf : 'a array array;
  mutable qhead : int;
  mutable qcount : int;  (* batches *)
  mutable qitems : int;  (* states across all batches *)
}

let q_make () =
  { qlock = Mutex.create ();
    qbuf = Array.make 16 [||];
    qhead = 0;
    qcount = 0;
    qitems = 0 }

let q_locked q f =
  Mutex.lock q.qlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock q.qlock) f

let q_push q batch =
  q_locked q (fun () ->
      let cap = Array.length q.qbuf in
      if q.qcount = cap then begin
        let b = Array.make (2 * cap) [||] in
        for i = 0 to q.qcount - 1 do
          b.(i) <- q.qbuf.((q.qhead + i) mod cap)
        done;
        q.qbuf <- b;
        q.qhead <- 0
      end;
      let cap = Array.length q.qbuf in
      q.qbuf.((q.qhead + q.qcount) mod cap) <- batch;
      q.qcount <- q.qcount + 1;
      q.qitems <- q.qitems + Array.length batch)

let q_take q ~back =
  q_locked q (fun () ->
      if q.qcount = 0 then None
      else begin
        let cap = Array.length q.qbuf in
        let i =
          if back then (q.qhead + q.qcount - 1) mod cap else q.qhead
        in
        let batch = q.qbuf.(i) in
        q.qbuf.(i) <- [||];
        if not back then q.qhead <- (q.qhead + 1) mod cap;
        q.qcount <- q.qcount - 1;
        q.qitems <- q.qitems - Array.length batch;
        Some batch
      end)

let q_iter q f =
  q_locked q (fun () ->
      let cap = Array.length q.qbuf in
      for i = 0 to q.qcount - 1 do
        Array.iter f q.qbuf.((q.qhead + i) mod cap)
      done)

(* how long an idle or parked worker sleeps between polls; stdlib
   [Condition] has no timed wait, and at this grain the poll is invisible
   next to batch expansion times *)
let poll_sleep = 0.0002
let batch_size = 64

module Run (S : Spec.S) = struct
  module E = Explorer.Run (S)

  let check ?(pulse_every = 1.0) ?resume pool scenario
      (opts : Explorer.options) =
    let started = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. started in
    let workers = Pool.size pool in
    let probe = opts.probe in
    let visited : S.state Shard_set.t = Shard_set.create () in
    let lookup = Shard_set.find_prov_opt visited in
    let store () =
      Shard_set.(length visited, capacity visited, store_bytes visited,
                 probe_steps visited)
    in
    let deadline = Option.map (fun b -> started +. b) opts.time_budget in
    let invariants = E.invariants opts in
    (* shard_key gives 8 uniform bits; scale them onto [0, workers) *)
    let route_mask = 255 in
    let dest fp =
      Fingerprint.shard_key fp ~mask:route_mask * workers / (route_mask + 1)
    in
    let queues : (S.state * int * int) queue array =
      Array.init workers (fun _ -> q_make ())
    in
    let outstanding = Atomic.make 0 in
    let enqueue d batch =
      (* increment before the batch is visible: the counter over-approximates
         live work, so 0 is a stable "nothing anywhere" signal *)
      Atomic.incr outstanding;
      q_push queues.(d) batch
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
    (* batch the seeds by destination worker *)
    let per_dest = Array.make workers [] in
    let per_cnt = Array.make workers 0 in
    List.iter
      (fun ((_, r, _) as it) ->
        let d = dest (Shard_set.fp visited r) in
        per_dest.(d) <- it :: per_dest.(d);
        per_cnt.(d) <- per_cnt.(d) + 1;
        if per_cnt.(d) >= batch_size then begin
          enqueue d (Array.of_list (List.rev per_dest.(d)));
          per_dest.(d) <- [];
          per_cnt.(d) <- 0
        end)
      seed_items;
    Array.iteri
      (fun d items ->
        if items <> [] then enqueue d (Array.of_list (List.rev items)))
      per_dest;
    (* a paused world is quiescent: every worker is between batches with
       flushed outboxes, so the frontier is exactly the queued states *)
    let snapshot_now ~gen_now ~maxd () =
      let fps = ref [] in
      let mind = ref max_int in
      Array.iter
        (fun q ->
          q_iter q (fun (_, r, d) ->
              fps := Shard_set.fp visited r :: !fps;
              if d < !mind then mind := d))
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
    (* ---- worker loop --------------------------------------------------- *)
    let worker_loop w =
      let wp = Probe.worker probe w in
      let obuf = Array.make workers [] in
      let ocnt = Array.make workers 0 in
      let flush d =
        if ocnt.(d) > 0 then begin
          let batch = Array.of_list (List.rev obuf.(d)) in
          obuf.(d) <- [];
          ocnt.(d) <- 0;
          enqueue d batch
        end
      in
      let route fp it =
        let d = dest fp in
        obuf.(d) <- it :: obuf.(d);
        ocnt.(d) <- ocnt.(d) + 1;
        if ocnt.(d) >= batch_size then flush d
      in
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
      let expand_one (state, r, depth) =
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
          if succs = [] && opts.check_deadlock then
            stop_with (E.deadlock lookup scenario (Shard_set.fp visited r));
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
                if S.constraint_ok scenario state' then
                  route fp' (state', r', depth + 1);
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
            match q_take queues.(v) ~back:true with
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
            let frontier = Array.fold_left (fun n q -> n + q.qitems) 0 queues in
            let gen_now = cur_generated () in
            let maxd = cur_maxdepth () in
            if Probe.is_on probe then begin
              for v = 0 to workers - 1 do
                Probe.gauge (Probe.worker probe v) "queue.depth"
                  (float_of_int queues.(v).qitems)
              done;
              E.visited_gauges probe store
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
            match q_take queues.(w) ~back:false with
            | Some b -> Some b
            | None -> steal ()
          in
          match batch with
          | Some batch ->
            end_idle ();
            if !busy_t0 = None then busy_t0 := Some (Unix.gettimeofday ());
            let exp0 = st_expanded.(w) in
            Array.iter
              (fun it -> if not (Atomic.get stop) then expand_one it)
              batch;
            Probe.count wp "expand.states" (st_expanded.(w) - exp0);
            (* flush every outbox before the decrement: between batches
               all routed states live in queues, and the children were
               counted into [outstanding] before the parent batch retires *)
            for d = 0 to workers - 1 do
              flush d
            done;
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
