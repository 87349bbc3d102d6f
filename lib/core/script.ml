type pattern = Trace.event -> string -> bool

let timeout node kind (e : Trace.event) _ =
  match e with
  | Trace.Timeout t -> t.node = node && String.equal t.kind kind
  | _ -> false

let deliver ~src ~dst (e : Trace.event) _ =
  match e with
  | Trace.Deliver d -> d.src = src && d.dst = dst
  | _ -> false

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let deliver_msg ~src ~dst fragment (e : Trace.event) label =
  match e with
  | Trace.Deliver d -> d.src = src && d.dst = dst && contains ~needle:fragment label
  | _ -> false

let client node (e : Trace.event) _ =
  match e with Trace.Client c -> c.node = node | _ -> false

let client_op node op (e : Trace.event) _ =
  match e with
  | Trace.Client c -> c.node = node && String.equal c.op op
  | _ -> false

let crash node (e : Trace.event) _ =
  match e with Trace.Crash c -> c.node = node | _ -> false

let restart node (e : Trace.event) _ =
  match e with Trace.Restart r -> r.node = node | _ -> false

let partition group (e : Trace.event) _ =
  match e with Trace.Partition p -> p.group = group | _ -> false

let heal (e : Trace.event) _ = e = Trace.Heal

let drop ~src ~dst (e : Trace.event) _ =
  match e with Trace.Drop d -> d.src = src && d.dst = dst | _ -> false

let duplicate ~src ~dst (e : Trace.event) _ =
  match e with Trace.Duplicate d -> d.src = src && d.dst = dst | _ -> false
let any (_ : Trace.event) _ = true

type failure = { at : int; enabled : (Trace.event * string) list }

let pp_failure ppf f =
  Fmt.pf ppf "@[<v>script step %d matched nothing; enabled:@,%a@]" f.at
    (Fmt.list ~sep:Fmt.cut (fun ppf (e, label) ->
         Trace.pp_labelled_event label ppf e))
    f.enabled

let run (module S : Spec.S) scenario patterns =
  match S.init scenario with
  | [] -> Error { at = 0; enabled = [] }
  | s0 :: _ ->
    let rec go state i acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest ->
        let successors = S.next scenario state in
        (match
           List.find_opt
             (fun (event, _) -> p event (S.describe state event))
             successors
         with
        | Some (event, state') -> go state' (i + 1) (event :: acc) rest
        | None ->
          Error
            { at = i;
              enabled =
                List.map (fun (e, _) -> (e, S.describe state e)) successors })
    in
    go s0 0 [] patterns

let violation_after (module S : Spec.S) scenario events =
  match S.init scenario with
  | [] -> None
  | s0 :: _ ->
    let broken state =
      List.find_map
        (fun (name, holds) ->
          if holds scenario state then None else Some name)
        S.invariants
    in
    let rec go state i = function
      | [] -> None
      | e :: rest -> (
        match Spec.step (module S) scenario state e with
        | None -> None
        | Some state' -> (
          match broken state' with
          | Some name -> Some (name, i)
          | None -> go state' (i + 1) rest))
    in
    go s0 1 events
