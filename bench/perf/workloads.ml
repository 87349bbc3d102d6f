(* The four workloads, as run inside one repetition's process. Each calls
   the libraries' public functions the way bin/sandtable_cli.ml does,
   times them from outside, and checks the answer it gets back: a wrong
   answer is a failed operation, never a silent number.

   A repetition is sized to take one to two seconds, so that a run of the
   harness's length holds a dozen or more of them: the machine's speed
   drifts for tens of seconds at a time with the host's other tenants,
   and only many short repetitions per run let the run's figure see past
   a slow phase. *)

open Sandtable
module R = Systems.Registry
module Bug = Systems.Bug

type size = Full | Smoke
type mode = Plain | Traced

type outcome = {
  values : (string * float) list;
      (** end-to-end and per-layer values; names starting with ['_'] are
          intermediate figures the parent combines across passes *)
  attempted : int;
  failed : int;
  failures : string list;
  work : int;  (** generated states, or replayed events on conform *)
  repeat_key : int;
      (** a count every repetition with the same seed must reproduce *)
}

type t = {
  name : string;
  prepare : size -> seed:int -> mode -> outcome;
      (** applied to its size and seed, the set-up [setup_s] covers; the
          function it returns makes the first timed call *)
}

let now_s () = float (Tracer.now_ns ()) *. 1e-9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float a) (float b)

type gate = {
  mutable g_attempted : int;
  mutable g_failed : int;
  mutable g_failures : string list;
}

let gate () = { g_attempted = 0; g_failed = 0; g_failures = [] }

let expect g ok what =
  g.g_attempted <- g.g_attempted + 1;
  if not ok then begin
    g.g_failed <- g.g_failed + 1;
    g.g_failures <- what :: g.g_failures
  end

let outcome g ~work ~repeat_key values =
  { values; attempted = g.g_attempted; failed = g.g_failed;
    failures = List.rev g.g_failures; work; repeat_key }

(* End-to-end rates over one engine call. *)
let rates ~wall ~ttv ~states ~events =
  [ ("wall_s", wall); ("ttv_s", ttv);
    ("states_per_s", ratio states ttv); ("events_per_s", ratio events ttv) ]

(* Per-call costs of the spec stages, from the traced pass's wrappers;
   [generated] successors over all [S.next] calls give the branching. *)
let spec_layer ?generated () =
  let next_calls = Tracer.calls Wrap.s_next in
  Option.fold generated ~none:[] ~some:(fun g ->
      [ ("spec.branching", fratio g next_calls) ])
  @ [ ("spec.next_ns", Tracer.ns_per_call Wrap.s_next);
    ("spec.next_calls", float next_calls);
    ("spec.invariant_ns", Tracer.ns_per_call Wrap.s_invariant);
    ("spec.constraint_ns", Tracer.ns_per_call Wrap.s_constraint);
    ("spec.observe_ns", Tracer.ns_per_call Wrap.s_observe);
    ("symmetry.permute_ns", Tracer.ns_per_call Wrap.s_permute);
    ("symmetry.permute_calls", float (Tracer.calls Wrap.s_permute)) ]

let impl_layer () =
  [ ("impl.boot_ns", Tracer.ns_per_call Wrap.s_boot);
    ("impl.execute_ns", Tracer.ns_per_call Wrap.s_execute);
    ("impl.observe_ns", Tracer.ns_per_call Wrap.s_impl_observe);
    ("conform.mask_ns", Tracer.ns_per_call Wrap.s_mask) ]

let traced_spec mode spec = match mode with Traced -> Wrap.spec spec | Plain -> spec
let traced_boot mode boot = match mode with Traced -> Wrap.sut boot | Plain -> boot

let traced_mask mode =
  match mode with
  | Traced -> Wrap.mask Systems.Common.conformance_mask
  | Plain -> Systems.Common.conformance_mask

(* ------------------------------------------------------------------ *)
(* explore-sym, explore-nosym                                           *)
(* ------------------------------------------------------------------ *)

let pysyncobj = R.find "pysyncobj"

(* The table-3 model (three nodes, two workload values, the same fault and
   timeout budgets) without its partition: a fifth of the space, so one
   exhaustive check takes 1–2 s instead of 6–9 s. *)
let bench_scenario =
  Scenario.v ~name:"pysyncobj-bench" ~nodes:3 ~workload:[ 1; 2 ]
    [ ("timeouts", 3); ("requests", 2); ("crashes", 1); ("restarts", 1);
      ("partitions", 0); ("buffer", 3) ]

(* The scaled-down space [perf.exe smoke] explores: 2 nodes, one workload
   value (bench/main.ml's memory-smoke model). *)
let smoke_scenario =
  Scenario.v ~name:"memory-smoke" ~nodes:2 ~workload:[ 1 ]
    [ ("timeouts", 6); ("requests", 2); ("crashes", 1); ("restarts", 1);
      ("partitions", 0); ("buffer", 4) ]

type space = { scenario : Scenario.t; distinct : int; generated : int }

let space size ~symmetry =
  match size, symmetry with
  | Full, true -> { scenario = bench_scenario; distinct = 42_758; generated = 158_778 }
  | Full, false -> { scenario = bench_scenario; distinct = 255_517; generated = 949_077 }
  | Smoke, true -> { scenario = smoke_scenario; distinct = 49_322; generated = 125_689 }
  | Smoke, false -> { scenario = smoke_scenario; distinct = 98_450; generated = 250_768 }

let exhausted_as sp (r : Explorer.result) =
  match r.outcome with
  | Explorer.Exhausted -> r.distinct = sp.distinct && r.generated = sp.generated
  | _ -> false

let counts_note what distinct generated =
  Printf.sprintf "%s: distinct/generated %d/%d" what distinct generated

let explore ~symmetry size ~seed:_ =
  let spec = pysyncobj.spec Bug.Flags.empty in
  let sp = space size ~symmetry in
  function
  | Plain ->
    let g = gate () in
    let r, dt =
      timed (fun () -> Explorer.check spec sp.scenario { Explorer.default with symmetry })
    in
    expect g (exhausted_as sp r) (counts_note "engine" r.distinct r.generated);
    outcome g ~work:r.generated ~repeat_key:r.distinct
      (("_distinct", float r.distinct)
      :: rates ~wall:dt ~ttv:dt ~states:(float r.distinct) ~events:(float r.generated))
  | Traced ->
    let g = gate () in
    let d = Stage_driver.run spec sp.scenario ~symmetry in
    expect g
      (d.distinct = sp.distinct && d.generated = sp.generated)
      (counts_note "stage driver" d.distinct d.generated);
    let stage_sum =
      List.fold_left (fun s st -> s +. Tracer.total_s st) 0. Stage_driver.stages
    in
    let adds = Tracer.calls Wrap.s_store_add in
    outcome g ~work:d.generated ~repeat_key:d.distinct
      ([ ("_stage_sum_s", stage_sum);
         ("symmetry.canonical_ns", Tracer.ns_per_call Wrap.s_canonical);
         ("symmetry.share", ratio (Tracer.total_s Wrap.s_canonical) stage_sum);
         ("fingerprint.ns", Tracer.ns_per_call Wrap.s_fingerprint);
         ("fingerprint.bytes", fratio d.fp_bytes d.fp_calls);
         ("store.add_ns", Tracer.ns_per_call Wrap.s_store_add);
         ("store.fresh_ratio", fratio d.distinct d.generated);
         ("store.probe_steps_per_op", fratio d.probe_steps adds);
         ("store.bytes_per_state", fratio d.store_bytes d.distinct) ]
      @ spec_layer ~generated:d.generated ()
      @ rates ~wall:d.seconds ~ttv:d.seconds ~states:(float d.distinct)
          ~events:(float d.generated))

(* ------------------------------------------------------------------ *)
(* bughunt                                                              *)
(* ------------------------------------------------------------------ *)

let smoke_bugs = [ "DaosRaft#1"; "Xraft#1" ]

let find_bug id =
  List.find_map
    (fun (sys : R.t) ->
      List.find_opt (fun (b : Bug.info) -> String.equal b.id id) sys.bugs
      |> Option.map (fun b -> (sys, b)))
    R.all
  |> Option.get

type bug_case = {
  b_id : string;
  b_sys : R.t;
  b_info : Bug.info;
  b_flags : Bug.Flags.t;
  b_spec : Spec.t;
  b_invariant : string;
  b_depth : int;
}

type hunt = {
  h_id : string;
  h_result : Explorer.result;
  h_ttv : float;
  h_shrink_s : float;
  h_candidates : int;
  h_confirm_s : float;
}

let bughunt size ~seed:_ =
  let ids =
    match size with
    | Full -> Catalog.bughunt_bugs
    | Smoke -> List.filter (fun (id, _) -> List.mem id smoke_bugs) Catalog.bughunt_bugs
  in
  let cases =
    List.map
      (fun (id, depth) ->
        let sys, info = find_bug id in
        let flags = Bug.flags info.flags in
        { b_id = id; b_sys = sys; b_info = info; b_flags = flags;
          b_spec = sys.spec flags; b_invariant = Option.get info.invariant;
          b_depth = depth })
      ids
  in
  fun mode ->
    let g = gate () in
    let mask = traced_mask mode in
    let hunt c =
      let spec = traced_spec mode c.b_spec in
      let boot = traced_boot mode (c.b_sys.sut c.b_flags None) in
      let scenario = c.b_info.scenario in
      let opts =
        { Explorer.default with
          only_invariants = Some [ c.b_invariant ];
          time_budget = Some 60. }
      in
      let r, ttv =
        timed (fun () -> Tracer.span1 Wrap.s_check (Explorer.check spec scenario) opts)
      in
      let found = { h_id = c.b_id; h_result = r; h_ttv = ttv; h_shrink_s = 0.;
                    h_candidates = 0; h_confirm_s = 0. } in
      let found, verdict =
        match r.outcome with
        | Explorer.Violation v when v.invariant = c.b_invariant && v.depth = c.b_depth
          -> (
          match
            timed (fun () ->
                Tracer.span1 Wrap.s_shrink
                  (Shrink.run spec scenario (Shrink.Invariant c.b_invariant))
                  v.events)
          with
          | exception Invalid_argument m -> (found, Error ("shrink: " ^ m))
          | sh, shrink_s ->
            let confirmation, confirm_s =
              timed (fun () ->
                  Tracer.span1 Wrap.s_confirm
                    (Replay.confirm ~mask spec ~boot scenario)
                    sh.minimized)
            in
            ( { found with h_shrink_s = shrink_s; h_candidates = sh.tried;
                           h_confirm_s = confirm_s },
              match confirmation with
              | Replay.Confirmed _ -> Ok ()
              | Replay.False_alarm _ -> Error "minimized trace not confirmed" ))
        | Explorer.Violation v ->
          (found, Error (Printf.sprintf "%s at depth %d" v.invariant v.depth))
        | _ -> (found, Error "no violation")
      in
      expect g (Result.is_ok verdict)
        (Printf.sprintf "%s: %s" c.b_id
           (match verdict with Ok () -> "" | Error m -> m));
      found
    in
    let hunts = List.map hunt cases in
    let sum f = List.fold_left (fun s h -> s +. f h) 0. hunts in
    let ttv = sum (fun h -> h.h_ttv) in
    let shrink_s = sum (fun h -> h.h_shrink_s) in
    let confirm_s = sum (fun h -> h.h_confirm_s) in
    let distinct = sum (fun h -> float h.h_result.distinct) in
    let generated = List.fold_left (fun n h -> n + h.h_result.generated) 0 hunts in
    let layer =
      match mode with
      | Plain ->
        List.map (fun h -> (Catalog.bug_metric h.h_id, h.h_ttv)) hunts
        @ [ ("shrink.s", shrink_s);
            ("shrink.candidates", sum (fun h -> float h.h_candidates));
            ("replay.confirm_s", confirm_s) ]
      | Traced -> spec_layer ~generated () @ impl_layer ()
    in
    outcome g ~work:generated ~repeat_key:generated
      (layer
      @ rates ~wall:(ttv +. shrink_s +. confirm_s) ~ttv ~states:distinct
          ~events:(float generated))

(* ------------------------------------------------------------------ *)
(* conform                                                              *)
(* ------------------------------------------------------------------ *)

let conform_walk_depth = 30

let conform size ~seed =
  let rounds = match size with Full -> 250 | Smoke -> 50 in
  let systems =
    List.map
      (fun (sys : R.t) ->
        (sys, sys.spec Bug.Flags.empty, sys.sut Bug.Flags.empty None))
      R.all
  in
  fun mode ->
    let g = gate () in
    let mask = traced_mask mode in
    let one ((sys : R.t), spec, boot) =
      let spec = traced_spec mode spec in
      let boot = traced_boot mode boot in
      let report, dt =
        timed (fun () ->
            Tracer.span1 Wrap.s_conform
              (fun () ->
                Conformance.run ~mask ~walk_depth:conform_walk_depth spec ~boot
                  sys.default_scenario ~rounds ~seed)
              ())
      in
      expect g
        (Option.is_none report.discrepancy && report.rounds_run = rounds)
        (Printf.sprintf "%s: %s" sys.name
           (Fmt.str "%a" Conformance.pp_report report));
      (report, dt)
    in
    let reports = List.map one systems in
    let wall = List.fold_left (fun s (_, dt) -> s +. dt) 0. reports in
    let events =
      List.fold_left (fun n ((r : Conformance.report), _) -> n + r.total_events) 0 reports
    in
    let rounds_run =
      List.fold_left (fun n ((r : Conformance.report), _) -> n + r.rounds_run) 0 reports
    in
    let layer =
      match mode with
      | Plain -> []
      | Traced ->
        let staged =
          List.fold_left (fun s st -> s +. Tracer.total_s st) 0.
            ((Wrap.s_mask :: Wrap.spec_stages) @ Wrap.impl_stages)
        in
        ("conform.residual_ns", ratio ((wall -. staged) *. 1e9) (float events))
        :: spec_layer () @ impl_layer ()
    in
    outcome g ~work:events ~repeat_key:events
      (layer
      @ rates ~wall ~ttv:wall ~states:(float (events + rounds_run)) ~events:(float events))

let all =
  [ { name = "explore-sym"; prepare = explore ~symmetry:true };
    { name = "explore-nosym"; prepare = explore ~symmetry:false };
    { name = "bughunt"; prepare = bughunt };
    { name = "conform"; prepare = conform } ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
let names = List.map (fun w -> w.name) all
