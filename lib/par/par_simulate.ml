open Sandtable

type worker_stat = { ws_walks : int; ws_events : int; ws_busy : float }

(* Each worker folds its contiguous range of walk indices, in index order,
   into an accumulator of its own; merging the accumulators in worker order
   gives the index-order fold at every worker count. *)
let fold ?workers ?probe ?(progress_every = 0) ?progress spec scenario
    (opts : Simulate.options) ~seed ~count ~init ~add ~merge =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> Domain.recommended_domain_count ()
  in
  let ranges = Array.of_list (Pool.split ~chunks:workers ~len:count) in
  let accs = Array.make (Array.length ranges) init in
  (* completed-walk count shared across domains, only for progress ticks *)
  let done_walks = Atomic.make 0 in
  let stats =
    Pool.with_pool workers (fun pool ->
        let ws_walks = Array.make workers 0 in
        let ws_events = Array.make workers 0 in
        let ws_busy = Array.make workers 0. in
        let wend = Array.make workers (Probe.now probe) in
        Pool.run pool (fun w ->
            if w < Array.length ranges then begin
              let lo, hi = ranges.(w) in
              let wp = Probe.worker probe w in
              let t0 = Unix.gettimeofday () in
              let events = ref 0 and acc = ref init in
              for i = lo to hi - 1 do
                let walk =
                  Simulate.walk ?probe:wp spec scenario opts
                    (Simulate.rng_for ~seed i)
                in
                events := !events + walk.Simulate.depth;
                acc := add !acc walk;
                if progress_every > 0 then begin
                  let n = Atomic.fetch_and_add done_walks 1 + 1 in
                  if n mod progress_every = 0 then
                    Option.iter (fun f -> f n) progress
                end
              done;
              accs.(w) <- !acc;
              ws_walks.(w) <- hi - lo;
              ws_events.(w) <- !events;
              let t1 = Unix.gettimeofday () in
              Probe.span_at wp "walks" ~t0 ~t1;
              wend.(w) <- t1;
              ws_busy.(w) <- t1 -. t0
            end);
        if Probe.is_on probe then begin
          let barrier_t = Unix.gettimeofday () in
          for w = 0 to workers - 1 do
            Probe.span_at (Probe.worker probe w) "barrier-wait"
              ~t0:wend.(w) ~t1:barrier_t
          done
        end;
        Array.init workers (fun w ->
            { ws_walks = ws_walks.(w);
              ws_events = ws_events.(w);
              ws_busy = ws_busy.(w) }))
  in
  Array.fold_left merge init accs, stats

let aggregate ?workers ?probe ?progress_every ?progress spec scenario opts
    ~seed ~count =
  fold ?workers ?probe ?progress_every ?progress spec scenario opts ~seed
    ~count ~init:Simulate.no_walks ~add:Simulate.add ~merge:Simulate.merge

let walks ?workers ?probe spec scenario opts ~seed ~count =
  let newest_first, _ =
    fold ?workers ?probe spec scenario opts ~seed ~count ~init:[]
      ~add:(fun acc w -> w :: acc)
      ~merge:(fun earlier later -> later @ earlier)
  in
  List.rev newest_first

let walks_per_sec s =
  if s.ws_busy <= 0. then 0. else float s.ws_walks /. s.ws_busy

let pp_worker_stats ppf stats =
  Array.iteri
    (fun w s ->
      Fmt.pf ppf "worker %d: walks=%d events=%d busy=%.2fs (%.0f walks/s)@." w
        s.ws_walks s.ws_events s.ws_busy (walks_per_sec s))
    stats
