type result = {
  satisfied : bool;
  distinct : int;
  counterexample : Trace.t option;
  labels : string list;
  duration : float;
}

(* The spec in product with "P held somewhere on the path here": a state
   reached both along a path where P held and along one where it never did
   is two product states, so the second path is expanded too. Its one
   invariant fails at a state where P never held and the path cannot go
   on: the state constraint stops it, or nothing is enabled. *)
module Product (S : Spec.S) (P : sig
  val p : Tla.Value.t -> bool
end) : Spec.S with type state = S.state * bool = struct
  type state = S.state * bool

  let name = S.name
  let seen s = P.p (S.observe s)
  let init scenario = List.map (fun s -> (s, seen s)) (S.init scenario)

  let successors scenario (s, held) =
    List.map
      (fun (event, build) ->
        ( event,
          fun () ->
            let s' = build () in
            (s', held || seen s') ))
      (S.successors scenario s)

  let next scenario st = Spec.force (successors scenario st)
  let constraint_ok scenario (s, _) = S.constraint_ok scenario s

  (* the path can go on from [s] *)
  let goes_on scenario s =
    S.constraint_ok scenario s
    && match S.successors scenario s with [] -> false | _ -> true

  let invariants =
    [ ("Eventually", fun scenario (s, held) -> held || goes_on scenario s) ]

  let observe (s, _) = S.observe s

  (* P need not be invariant under node renaming *)
  let permutable = false
  let permute p (s, held) = (S.permute p s, held)
  let node_key (s, _) i = S.node_key s i
  let describe (s, _) event = S.describe s event

  let pp_state ppf (s, held) =
    Fmt.pf ppf "%a (P held: %b)" S.pp_state s held
end

let check_eventually ?time_budget ?max_states (module S : Spec.S) scenario ~p
    =
  let module M = Product (S) (struct
    let p = p
  end) in
  let r =
    Explorer.check
      (module M)
      scenario
      { Explorer.default with symmetry = false; time_budget; max_states }
  in
  let counterexample, labels =
    match r.outcome with
    | Explorer.Violation v -> (Some v.events, v.labels)
    | Explorer.Exhausted | Explorer.Budget_spent -> (None, [])
  in
  { satisfied = counterexample = None;
    distinct = r.distinct;
    counterexample;
    labels;
    duration = r.duration }

let leader_elected obs =
  match Tla.Value.field obs "nodes" with
  | Some (Tla.Value.Map nodes) ->
    List.exists
      (fun (_, node) ->
        match Tla.Value.field node "role" with
        | Some (Tla.Value.Str ("leader" | "leading")) -> true
        | _ -> false)
      nodes
  | _ -> false

let pp_result ppf r =
  match r.counterexample with
  | None ->
    Fmt.pf ppf "eventually-P holds on all %d states (%.2fs)" r.distinct
      r.duration
  | Some trace ->
    Fmt.pf ppf
      "@[<v>bounded liveness violated: P never holds along@,%a(%d states, %.2fs)@]"
      (Trace.pp_labelled r.labels) trace r.distinct r.duration
