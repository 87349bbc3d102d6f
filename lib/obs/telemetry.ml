(* Per-worker figures carried between samples so each record reports the
   delta (states, expand/barrier seconds) over its own interval. *)
type wprev = {
  mutable wp_states : int;
  mutable wp_expand : float;
  mutable wp_barrier : float;
  mutable wp_steal_wait : float;
  mutable wp_steals : int;
  mutable wp_steal_failed : int;
}

type t = {
  cadence : Progress.cadence;
  prev : wprev array;
  mutable last_t : float;
}

let create ~cadence ~t0 ~workers =
  { cadence;
    prev =
      Array.init (max 1 workers) (fun _ ->
          { wp_states = 0; wp_expand = 0.; wp_barrier = 0.;
            wp_steal_wait = 0.; wp_steals = 0; wp_steal_failed = 0 });
    last_t = t0 }

let due t ~layer ~now =
  match t.cadence with
  | Progress.Never -> false
  | Every_states k -> k > 0 && layer mod k = 0
  | Every_seconds secs -> now -. t.last_t >= secs

(* Read at a barrier while every worker is parked: the only point where
   their collectors can be read without races. *)
let sample t ~layer ~collectors ~now =
  if not (due t ~layer ~now) then []
  else begin
    let open Store.Sjson in
    let int n = Num (float_of_int n) in
    let dt = now -. t.last_t in
    let workers =
      Array.to_list
        (Array.mapi
           (fun i c ->
             let p = if i < Array.length t.prev then t.prev.(i) else t.prev.(0) in
             let states = Metrics.counter_of c "expand.states" in
             let expand = Metrics.timer_total_of c "expand" in
             let barrier = Metrics.timer_total_of c "barrier-wait" in
             let steal_wait = Metrics.timer_total_of c "steal-wait" in
             let steals = Metrics.counter_of c "steal.count" in
             let steal_failed = Metrics.counter_of c "steal.failed" in
             let d_states = states - p.wp_states in
             let d_expand = expand -. p.wp_expand in
             let d_barrier = barrier -. p.wp_barrier in
             let d_steal_wait = steal_wait -. p.wp_steal_wait in
             let d_steals = steals - p.wp_steals in
             let d_steal_failed = steal_failed - p.wp_steal_failed in
             p.wp_states <- states;
             p.wp_expand <- expand;
             p.wp_barrier <- barrier;
             p.wp_steal_wait <- steal_wait;
             p.wp_steals <- steals;
             p.wp_steal_failed <- steal_failed;
             (* queue depth is a work-stealing gauge set at each pulse;
                absent (strict engines) it is simply omitted *)
             let qdepth =
               match Metrics.gauge_last_of c "queue.depth" with
               | Some v -> [ ("queue_depth", int (int_of_float v)) ]
               | None -> []
             in
             Obj
               ([ ("states", int d_states);
                  ( "states_per_s",
                    Num (if dt > 0. then float d_states /. dt else 0.) );
                  ("expand_s", Num d_expand);
                  ("barrier_wait_s", Num d_barrier);
                  ("steal_wait_s", Num d_steal_wait);
                  ("steals", int d_steals);
                  ("steal_failed", int d_steal_failed) ]
               @ qdepth))
           collectors)
    in
    let sum_counter name =
      Array.fold_left (fun acc c -> acc + Metrics.counter_of c name) 0 collectors
    in
    let gauge0 name =
      if Array.length collectors = 0 then None
      else Metrics.gauge_last_of collectors.(0) name
    in
    let visited_entries = gauge0 "visited.entries" in
    let visited_capacity = gauge0 "visited.capacity" in
    let visited_bytes = gauge0 "visited.store_bytes" in
    let load_pct =
      match (visited_entries, visited_capacity) with
      | Some e, Some c when c > 0. -> Some (100. *. e /. c)
      | _ -> None
    in
    let bytes_per_state =
      match (visited_entries, visited_bytes) with
      | Some e, Some b when e > 0. -> Some (b /. e)
      | _ -> None
    in
    let opt_num name v =
      match v with Some f -> [ (name, Num f) ] | None -> []
    in
    let gc = Gc.quick_stat () in
    t.last_t <- now;
    [ ("spill_bytes", int (sum_counter "spill.bytes_written"));
      ("steal_count", int (sum_counter "steal.count"));
      ("steal_failed", int (sum_counter "steal.failed")) ]
    @ opt_num "visited_load_pct" load_pct
    @ opt_num "visited_bytes_per_state" bytes_per_state
    @ [ ("heap_words", int gc.Gc.heap_words);
        ("major_collections", int gc.Gc.major_collections);
        ("workers", List workers) ]
  end
