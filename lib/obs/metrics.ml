type gauge = { mutable g_last : float; mutable g_max : float }
type timer = { mutable tm_count : int; mutable tm_total : float }

(* One collector per worker, touched only by that worker's domain — no
   locks anywhere on the reporting path. *)
type collector = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
}

let create_collector () =
  { counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    timers = Hashtbl.create 16 }

let create_collectors ~workers = Array.init (max 1 workers) (fun _ -> create_collector ())

let add_count c name n =
  match Hashtbl.find_opt c.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace c.counters name (ref n)

let set_gauge c name v =
  match Hashtbl.find_opt c.gauges name with
  | Some g ->
    g.g_last <- v;
    if v > g.g_max then g.g_max <- v
  | None -> Hashtbl.replace c.gauges name { g_last = v; g_max = v }

let add_timer c name dur =
  match Hashtbl.find_opt c.timers name with
  | Some t ->
    t.tm_count <- t.tm_count + 1;
    t.tm_total <- t.tm_total +. dur
  | None -> Hashtbl.replace c.timers name { tm_count = 1; tm_total = dur }

let counter_of c name =
  match Hashtbl.find_opt c.counters name with Some r -> !r | None -> 0

let timer_total_of c name =
  match Hashtbl.find_opt c.timers name with Some t -> t.tm_total | None -> 0.

let gauge_last_of c name =
  match Hashtbl.find_opt c.gauges name with
  | Some g -> Some g.g_last
  | None -> None

type summary = {
  s_counters : (string * int) list;
  s_gauges : (string * gauge) list;
  s_timers : (string * timer) list;
}

(* Deterministic merge: fold collectors in worker order, then sort each
   family by name — so for a fixed exploration the summary is independent
   of domain scheduling, and (for deterministic engines) of the worker
   count itself. *)
let merge collectors =
  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16 in
  let timers : (string, timer) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun c ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt counters name with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.replace counters name (ref !r))
        c.counters;
      Hashtbl.iter
        (fun name g ->
          match Hashtbl.find_opt gauges name with
          | Some acc ->
            acc.g_last <- g.g_last;
            if g.g_max > acc.g_max then acc.g_max <- g.g_max
          | None ->
            Hashtbl.replace gauges name { g_last = g.g_last; g_max = g.g_max })
        c.gauges;
      Hashtbl.iter
        (fun name t ->
          match Hashtbl.find_opt timers name with
          | Some acc ->
            acc.tm_count <- acc.tm_count + t.tm_count;
            acc.tm_total <- acc.tm_total +. t.tm_total
          | None ->
            Hashtbl.replace timers name
              { tm_count = t.tm_count; tm_total = t.tm_total })
        c.timers)
    collectors;
  let sorted tbl =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  { s_counters = List.map (fun (k, r) -> (k, !r)) (sorted counters);
    s_gauges = sorted gauges;
    s_timers = sorted timers }

let counter s name =
  match List.assoc_opt name s.s_counters with Some n -> n | None -> 0

let timer_total s name =
  match List.assoc_opt name s.s_timers with
  | Some t -> t.tm_total
  | None -> 0.

let to_json s =
  let open Store.Sjson in
  Obj
    [ ( "counters",
        Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) s.s_counters)
      );
      ( "gauges",
        Obj
          (List.map
             (fun (k, g) ->
               (k, Obj [ ("last", Num g.g_last); ("max", Num g.g_max) ]))
             s.s_gauges) );
      ( "timers",
        Obj
          (List.map
             (fun (k, t) ->
               ( k,
                 Obj
                   [ ("count", Num (float_of_int t.tm_count));
                     ("total_s", Num t.tm_total) ] ))
             s.s_timers) ) ]
