type t = {
  alive : bool;
  role : Types.role;
  current_term : Types.term;
  voted_for : int option;
  log : Log.t;
  commit_index : Types.index;
  next_index : Types.index array;
  match_index : Types.index array;
}

let mix h x = (h * 1_000_003) + x

let node_key ~self v =
  let role =
    match v.role with Types.Follower -> 0 | Candidate -> 1 | Leader -> 2
  in
  let h = mix (Bool.to_int v.alive) role in
  let h = mix (mix h v.current_term) v.commit_index in
  mix (mix h (Log.hash v.log)) (Bool.to_int (v.voted_for = Some self))

let ints a = Tla.Value.seq (Array.fold_right (fun i l -> Tla.Value.int i :: l) a [])

(* Fields in canonical (name) order: [Tla.Value.record] keeps them as is. *)
let observe v =
  let open Tla.Value in
  if not v.alive then record [ "status", str "down" ]
  else
    record
      [ "commit", int v.commit_index;
        "log", Log.observe v.log;
        "match", ints v.match_index;
        "next", ints v.next_index;
        "role", Types.observe_role v.role;
        "status", str "up";
        "term", int v.current_term;
        ( "voted_for",
          match v.voted_for with None -> str "none" | Some n -> int n ) ]

let pp ppf i v =
  Fmt.pf ppf "%s: %s role=%a term=%d voted=%a commit=%d %a next=%a match=%a@."
    (Sandtable.Trace.node_name i)
    (if v.alive then "up" else "down")
    Types.pp_role v.role v.current_term
    Fmt.(option ~none:(any "-") int)
    v.voted_for v.commit_index Log.pp v.log
    Fmt.(Dump.array int)
    v.next_index
    Fmt.(Dump.array int)
    v.match_index
