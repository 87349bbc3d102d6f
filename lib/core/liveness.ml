type result = {
  satisfied : bool;
  distinct : int;
  counterexample : Trace.t option;
  labels : string list;
  duration : float;
}

(* BFS like the explorer's, additionally tracking per-state whether P held
   anywhere on the discovery path. A state where the flag is still false and
   no successors survive the budget is a counterexample. *)
module Run (S : Spec.S) = struct
  type entry = {
    parent : (Fingerprint.t * Trace.event) option;
    seen_p : bool;
  }

  exception Found of Fingerprint.t

  let check scenario ~p ~time_budget ~max_states =
    let started = Unix.gettimeofday () in
    let deadline = Option.map (fun b -> started +. b) time_budget in
    let visited : entry Fingerprint.Tbl.t = Fingerprint.Tbl.create 4096 in
    let queue : (S.state * Fingerprint.t * bool) Queue.t = Queue.create () in
    let budget_hit = ref false in
    let discover parent state =
      let fp = Fingerprint.of_state state in
      if not (Fingerprint.Tbl.mem visited fp) then begin
        let inherited =
          match parent with Some (_, _, seen) -> seen | None -> false
        in
        let seen_p = inherited || p (S.observe state) in
        Fingerprint.Tbl.replace visited fp
          { parent = Option.map (fun (pfp, e, _) -> pfp, e) parent; seen_p };
        if S.constraint_ok scenario state then
          Queue.add (state, fp, seen_p) queue
        else if not seen_p then raise (Found fp)
      end
    in
    let trace_of fp =
      let rec back fp acc =
        match (Fingerprint.Tbl.find visited fp).parent with
        | None -> acc
        | Some (parent, event) -> back parent (event :: acc)
      in
      back fp []
    in
    let counterexample =
      try
        List.iter (fun s -> discover None s) (S.init scenario);
        while not (Queue.is_empty queue) do
          (match deadline with
          | Some t when Unix.gettimeofday () > t ->
            budget_hit := true;
            Queue.clear queue
          | _ -> ());
          (match max_states with
          | Some m when Fingerprint.Tbl.length visited >= m ->
            budget_hit := true;
            Queue.clear queue
          | _ -> ());
          if not (Queue.is_empty queue) then begin
            let state, fp, seen_p = Queue.pop queue in
            match S.next scenario state with
            | [] -> if not seen_p then raise (Found fp)
            | successors ->
              List.iter
                (fun (event, s') -> discover (Some (fp, event, seen_p)) s')
                successors
          end
        done;
        None
      with Found fp -> Some (trace_of fp)
    in
    { satisfied = counterexample = None;
      distinct = Fingerprint.Tbl.length visited;
      counterexample;
      labels =
        (match counterexample with
        | Some trace -> Spec.labels (module S) scenario trace
        | None -> []);
      duration = Unix.gettimeofday () -. started }
end

let check_eventually ?time_budget ?max_states (module S : Spec.S) scenario ~p
    =
  let module R = Run (S) in
  R.check scenario ~p ~time_budget ~max_states

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
