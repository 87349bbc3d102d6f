type t = {
  base_index : Types.index;
  base_term : Types.term;
  entries : Types.entry list;  (* entry k (0-based) lives at base_index+k+1 *)
}

let empty = { base_index = 0; base_term = 0; entries = [] }
let of_entries entries = { empty with entries }
let base_index t = t.base_index
let base_term t = t.base_term
let length t = List.length t.entries
let last_index t = t.base_index + length t

let last_term t =
  match List.rev t.entries with
  | e :: _ -> e.Types.term
  | [] -> t.base_term

let get t i =
  if i <= t.base_index then None else List.nth_opt t.entries (i - t.base_index - 1)

let term_at t i =
  if i = 0 then Some 0
  else if i = t.base_index then Some t.base_term
  else Option.map (fun e -> e.Types.term) (get t i)

let append t e = { t with entries = t.entries @ [ e ] }

let entries_from t i =
  let skip = max 0 (i - t.base_index - 1) in
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
  if i <= t.base_index then [] else drop skip t.entries

let truncate_from t i =
  if i <= t.base_index then { t with entries = [] }
  else
    let keep = i - t.base_index - 1 in
    let rec take n l =
      if n = 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r
    in
    { t with entries = take keep t.entries }

let matches t ~prev_index ~prev_term =
  match term_at t prev_index with
  | Some term -> term = prev_term
  | None -> false

let compact_to t i =
  if i <= t.base_index then t
  else
    match term_at t i with
    | None -> t  (* cannot compact beyond the log end *)
    | Some term ->
      { base_index = i; base_term = term; entries = entries_from t (i + 1) }

let install_snapshot ~last_index ~last_term =
  { base_index = last_index; base_term = last_term; entries = [] }

let entries t = List.mapi (fun k e -> t.base_index + k + 1, e) t.entries

(* Raft's Log Matching property: if two logs contain an entry with the same
   index and term, the logs are identical up to that index. Divergent terms
   at the same index are legal (uncommitted forks); disagreement BELOW an
   agreement point is not. Compacted indexes are skipped: their entries were
   committed, hence identical. *)
let is_prefix_consistent a b =
  let lo = 1 + max (base_index a) (base_index b) in
  let hi = min (last_index a) (last_index b) in
  let anchor =
    let rec scan i best =
      if i > hi then best
      else
        let best =
          match term_at a i, term_at b i with
          | Some ta, Some tb when ta = tb -> i
          | _ -> best
        in
        scan (i + 1) best
    in
    scan lo 0
  in
  let rec agree i =
    i > anchor
    ||
    match term_at a i, term_at b i with
    | Some ta, Some tb -> ta = tb && agree (i + 1)
    | _ -> agree (i + 1)
  in
  agree lo

let hash t =
  let mix h x = (h * 1_000_003) + x in
  List.fold_left
    (fun h (e : Types.entry) -> mix (mix h e.term) e.value)
    (mix t.base_index t.base_term) t.entries

let observe t =
  Tla.Value.record
    [ "base_index", Tla.Value.int t.base_index;
      "base_term", Tla.Value.int t.base_term;
      "entries", Tla.Value.seq (List.map Types.observe_entry t.entries) ]

let pp ppf t =
  Fmt.pf ppf "@[<h>log(base=%d:%d)[%a]@]" t.base_index t.base_term
    Fmt.(list ~sep:(any "; ") Types.pp_entry)
    t.entries
