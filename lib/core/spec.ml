module type S = sig
  type state

  val name : string
  val init : Scenario.t -> state list
  val next : Scenario.t -> state -> (Trace.event * state) list
  val successors : Scenario.t -> state -> (Trace.event * (unit -> state)) list
  val constraint_ok : Scenario.t -> state -> bool
  val invariants : (string * (Scenario.t -> state -> bool)) list
  val observe : state -> Tla.Value.t
  val permutable : bool
  val permute : int array -> state -> state
  val node_key : state -> int -> int
  val describe : state -> Trace.event -> string
  val pp_state : Format.formatter -> state -> unit
end

type t = (module S)

let force successors = List.map (fun (e, build) -> (e, build ())) successors

let name (module M : S) = M.name

let step (type s) (module M : S with type state = s) scenario (state : s) event =
  List.find_map
    (fun (e, build) ->
      if Trace.equal_event e event then Some (build ()) else None)
    (M.successors scenario state)

let observations_along (module M : S) scenario events =
  match M.init scenario with
  | [] -> None
  | s0 :: _ ->
    let step = step (module M) scenario in
    let rec loop state acc = function
      | [] -> Some (List.rev acc)
      | e :: rest -> (
        match step state e with
        | None -> None
        | Some s' -> loop s' (M.observe s' :: acc) rest)
    in
    loop s0 [] events

let labels (module M : S) scenario events =
  let rec go state acc = function
    | [] -> List.rev acc
    | e :: rest -> (
      let acc = M.describe state e :: acc in
      match step (module M) scenario state e with
      | Some s' -> go s' acc rest
      | None -> List.rev_append acc (List.map (fun _ -> "") rest))
  in
  match M.init scenario with
  | [] -> List.map (fun _ -> "") events
  | s0 :: _ -> go s0 [] events
