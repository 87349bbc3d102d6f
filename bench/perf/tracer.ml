(* Span accounting for the traced pass, kept entirely on the benchmark's
   side: every span wraps one call into a library's public function.

   Each domain owns its accumulators (count, total and self nanoseconds
   per stage) and a span stack, reached through [Domain.DLS], so a
   multi-domain engine's workers never share a cache line on the hot
   path. One span in [sample_every] is also kept whole — name, start,
   end and the enclosing span — and written out as a Chrome trace at the
   end of the run. Stages are registered before any worker domain starts;
   [merged] is read after they have all been joined. *)

let sample_every = 256
let max_stages = 32
let max_depth = 16

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type stage = int

let names = Array.make max_stages ""
let coarse = Array.make max_stages false
let n_stages = ref 0

(* A [coarse] stage (a whole engine call) has every span kept, not one in
   [sample_every]: there are few of them and they frame the sampled ones. *)
let stage ?(keep_all = false) name =
  if !n_stages = max_stages then invalid_arg "Tracer.stage: too many stages";
  names.(!n_stages) <- name;
  coarse.(!n_stages) <- keep_all;
  incr n_stages;
  !n_stages - 1

type span = {
  sp_stage : stage;
  sp_id : int;
  sp_parent : int;  (* -1 at the top of a domain's stack *)
  sp_start : int;
  sp_end : int;
  sp_tid : int;
}

type dstate = {
  tid : int;
  count : int array;
  total : int array;
  self : int array;
  child : int array;  (* per open span: corrected ns spent in its children *)
  desc : int array;  (* per open span: descendant spans closed inside it *)
  ids : int array;  (* per open span: its sequence number *)
  mutable depth : int;
  mutable seq : int;
  mutable kept : span list;
}

let all_states = ref []
let all_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect all_lock (fun () ->
          let d =
            { tid = List.length !all_states;
              count = Array.make max_stages 0;
              total = Array.make max_stages 0;
              self = Array.make max_stages 0;
              child = Array.make max_depth 0;
              desc = Array.make max_depth 0;
              ids = Array.make max_depth 0;
              depth = 0;
              seq = 0;
              kept = [] }
          in
          all_states := d :: !all_states;
          d))

(* Timer overhead, set by [calibrate]: [inner] is what an empty span
   reads as its own duration, [outer] what one child span adds to its
   parent's. A span's corrected time is its reading minus [inner] and
   [outer] per descendant, so nesting does not inflate stage sums. *)
let inner = ref 0
let outer = ref 0

let enter () =
  let d = Domain.DLS.get key in
  if d.depth = max_depth then invalid_arg "Tracer: spans nested too deeply";
  d.child.(d.depth) <- 0;
  d.desc.(d.depth) <- 0;
  d.ids.(d.depth) <- d.seq;
  d.seq <- d.seq + 1;
  d.depth <- d.depth + 1;
  now_ns ()

let leave st t0 =
  let t1 = now_ns () in
  let d = Domain.DLS.get key in
  d.depth <- d.depth - 1;
  let top = d.depth in
  let desc = d.desc.(top) in
  let dur = t1 - t0 - !inner - (desc * !outer) in
  d.count.(st) <- d.count.(st) + 1;
  d.total.(st) <- d.total.(st) + dur;
  d.self.(st) <- d.self.(st) + dur - d.child.(top);
  if top > 0 then begin
    d.child.(top - 1) <- d.child.(top - 1) + dur;
    d.desc.(top - 1) <- d.desc.(top - 1) + desc + 1
  end;
  let id = d.ids.(top) in
  if id mod sample_every = 0 || coarse.(st) then
    d.kept <-
      { sp_stage = st; sp_id = id;
        sp_parent = (if top > 0 then d.ids.(top - 1) else -1);
        sp_start = t0; sp_end = t1; sp_tid = d.tid }
      :: d.kept

let span1 st f x =
  let t0 = enter () in
  match f x with
  | r -> leave st t0; r
  | exception e -> leave st t0; raise e

let span2 st f x y =
  let t0 = enter () in
  match f x y with
  | r -> leave st t0; r
  | exception e -> leave st t0; raise e

(* Measure [inner] and [outer] where the benchmark runs, as the median of
   a few batches of empty spans, then forget the calibration spans. Call
   once, on the main domain, before any traced work. *)
let calibrate () =
  let st = stage "tracer.calibration" in
  let d = Domain.DLS.get key in
  let batch f =
    Array.fill d.count 0 max_stages 0;
    Array.fill d.total 0 max_stages 0;
    for _ = 1 to 20_000 do
      f ()
    done;
    float d.total.(st) /. float d.count.(st)
  in
  let median5 f =
    let xs = List.sort compare (List.init 5 (fun _ -> batch f)) in
    List.nth xs 2
  in
  let empty () = leave st (enter ()) in
  let nested () =
    let t = enter () in
    empty ();
    leave st t
  in
  let e = median5 empty in
  (* [nested] records two spans per call: its child ([e]) and itself *)
  let n = (2. *. median5 nested) -. e in
  inner := int_of_float e;
  outer := int_of_float (n -. e);
  Array.fill d.count 0 max_stages 0;
  Array.fill d.total 0 max_stages 0;
  Array.fill d.self 0 max_stages 0;
  d.seq <- 0;
  d.kept <- []

type acc = { calls : int; total_ns : int; self_ns : int }

(* Sum of every domain's accumulators for one stage. *)
let merged st =
  List.fold_left
    (fun a d ->
      { calls = a.calls + d.count.(st);
        total_ns = a.total_ns + d.total.(st);
        self_ns = a.self_ns + d.self.(st) })
    { calls = 0; total_ns = 0; self_ns = 0 }
    !all_states

let ns_per_call st =
  let a = merged st in
  if a.calls = 0 then 0. else float a.total_ns /. float a.calls

let total_s st = float (merged st).total_ns *. 1e-9
let calls st = (merged st).calls

(* Per-stage calls, total and self time, for stages that ran. *)
let pp_table ppf () =
  for st = 0 to !n_stages - 1 do
    let a = merged st in
    if a.calls > 0 then
      Fmt.pf ppf "  %-22s %10d calls %12.3f ms total %12.3f ms self@." names.(st)
        a.calls (float a.total_ns *. 1e-6) (float a.self_ns *. 1e-6)
  done

(* Chrome trace-event JSON ("X" complete events, microseconds relative to
   the earliest kept span), loadable in Perfetto or chrome://tracing. *)
let write_chrome path =
  let spans = List.concat_map (fun d -> d.kept) !all_states in
  let origin = List.fold_left (fun m s -> min m s.sp_start) max_int spans in
  let us ns = Store.Sjson.Num (float (ns - origin) /. 1000.) in
  let event s =
    let open Store.Sjson in
    Obj
      [ ("name", Str names.(s.sp_stage)); ("ph", Str "X");
        ("ts", us s.sp_start);
        ("dur", Num (float (s.sp_end - s.sp_start) /. 1000.));
        ("pid", Num 1.); ("tid", Num (float s.sp_tid));
        ("args",
         Obj [ ("id", Num (float s.sp_id)); ("parent", Num (float s.sp_parent)) ])
      ]
  in
  let doc =
    Store.Sjson.Obj
      [ ("traceEvents", Store.Sjson.List (List.map event spans));
        ("displayTimeUnit", Store.Sjson.Str "ns") ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Store.Sjson.to_string_compact doc));
  Fmt.epr "tracer: %d spans written to %s@." (List.length spans) path
