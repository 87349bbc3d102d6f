type op = Put of { key : int; value : int } | Get of { key : int }

type entry = {
  op : op;
  invoked : int;
  responded : int;
  result : int option;
}

let pp_op ppf = function
  | Put { key; value } -> Fmt.pf ppf "Put(%d:=%d)" key value
  | Get { key } -> Fmt.pf ppf "Get(%d)" key

let pp_entry ppf e =
  Fmt.pf ppf "%a@@[%d,%d]=%a" pp_op e.op e.invoked e.responded
    Fmt.(option ~none:(any "none") int)
    e.result

module IMap = Map.Make (Int)

let apply store = function
  | Put { key; value } -> IMap.add key value store
  | Get _ -> store

let get_matches store key result = IMap.find_opt key store = result

(* DFS over linearization points. An entry may come first iff no other
   remaining entry responded strictly before its invocation. Pending writes
   are optional: before each committed step we may flush any subset of them;
   exploring one-at-a-time insertion covers all subsets. *)
let check ?(pending = []) entries =
  let minimal e others =
    List.for_all (fun e' -> e'.responded > e.invoked) others
  in
  let rec go store remaining pend =
    match remaining with
    | [] -> true
    | _ ->
      let try_entry e =
        let others = List.filter (fun e' -> e' != e) remaining in
        minimal e others
        && (match e.op with
           | Put _ -> true
           | Get { key } -> get_matches store key e.result)
        && go (apply store e.op) others pend
      in
      let try_pending p =
        let rest = List.filter (fun p' -> p' != p) pend in
        go (apply store p) remaining rest
      in
      List.exists try_entry remaining || List.exists try_pending pend
  in
  go IMap.empty entries pending

(* Fields in canonical (name) order: [Tla.Value.record] keeps them as is. *)
let observe_entry e =
  let key, kind, value =
    match e.op with
    | Put { key; value } -> key, "put", [ "value", Tla.Value.int value ]
    | Get { key } -> key, "get", []
  in
  Tla.Value.record
    (("invoked", Tla.Value.int e.invoked)
    :: ("key", Tla.Value.int key)
    :: ("responded", Tla.Value.int e.responded)
    :: ( "result",
         match e.result with
         | None -> Tla.Value.str "none"
         | Some v -> Tla.Value.int v )
    :: ("type", Tla.Value.str kind)
    :: value)
