(* The traced pass for the sequential explore workloads: a breadth-first
   search built only from public functions, issuing them in the order
   [Explorer.check] does — successors from [S.next]; per successor the
   symmetry-canonical fingerprint (or the plain one), the visited-store
   insert, and for fresh states the invariants and then the state
   constraint. Each call is a traced stage, so their sum can be reconciled
   against the untraced engine's end-to-end time, and the distinct and
   generated counts must match the engine's exactly. *)

open Sandtable

exception Violated of string

type result = {
  distinct : int;
  generated : int;
  max_depth : int;
  seconds : float;
  fp_calls : int;  (* canonical or plain fingerprint calls *)
  fp_bytes : int;  (* bytes marshalled by those calls *)
  probe_steps : int;
  store_bytes : int;
}

let run (spec : Spec.t) (scenario : Scenario.t) ~symmetry =
  let module S = (val Wrap.spec spec) in
  let visited = Fp_store.create () in
  let frontier = Queue.create () in
  let generated = ref 0 and max_depth = ref 0 and fp_calls = ref 0 in
  let who = S.name and nodes = scenario.nodes in
  let fingerprint state =
    incr fp_calls;
    let t = Tracer.enter () in
    if symmetry && S.permutable then begin
      let fp = Symmetry.canonical_fp ~who ~permute:S.permute ~nodes state in
      Tracer.leave Wrap.s_canonical t;
      fp
    end
    else begin
      let fp = Fingerprint.of_state ~who state in
      Tracer.leave Wrap.s_fingerprint t;
      fp
    end
  in
  let discover prov depth state =
    let fp = fingerprint state in
    let t = Tracer.enter () in
    let added = Fp_store.add visited fp prov ~depth in
    Tracer.leave Wrap.s_store_add t;
    match added with
    | Fp_store.Dup _ -> ()
    | Fp_store.Fresh idx ->
      if depth > !max_depth then max_depth := depth;
      List.iter
        (fun (name, holds) ->
          if not (holds scenario state) then raise (Violated name))
        S.invariants;
      if S.constraint_ok scenario state then Queue.add (state, idx, depth) frontier
  in
  let bytes0 = Fingerprint.marshalled_bytes () in
  let t0 = Tracer.now_ns () in
  List.iteri (fun i s -> discover (Fp_store.Proot i) 0 s) (S.init scenario);
  while not (Queue.is_empty frontier) do
    let state, idx, depth = Queue.pop frontier in
    let t = Tracer.enter () in
    List.iter
      (fun (event, state') ->
        incr generated;
        discover (Fp_store.Pstep (idx, event)) (depth + 1) state')
      (S.next scenario state);
    Tracer.leave Wrap.s_expand t
  done;
  { distinct = Fp_store.length visited;
    generated = !generated;
    max_depth = !max_depth;
    seconds = float (Tracer.now_ns () - t0) *. 1e-9;
    fp_calls = !fp_calls;
    fp_bytes = Fingerprint.marshalled_bytes () - bytes0;
    probe_steps = Fp_store.probe_steps visited;
    store_bytes = Fp_store.store_bytes visited }

(* The stages whose sum is reconciled against the engine's time. *)
let stages =
  [ Wrap.s_next; Wrap.s_canonical; Wrap.s_fingerprint; Wrap.s_store_add;
    Wrap.s_invariant; Wrap.s_constraint ]
