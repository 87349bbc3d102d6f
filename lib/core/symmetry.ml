let permutations n =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x rest)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insert_everywhere x) (perms rest)
  in
  let all = perms (List.init n Fun.id) in
  let arrays = List.map Array.of_list all in
  let identity = Array.init n Fun.id in
  identity :: List.filter (fun p -> p <> identity) arrays

(* Cache permutation lists per tie-block size. The cache is a
   snapshot-swapped immutable assoc list so concurrent domains can read it
   without locking (a lost race merely recomputes a permutation list). *)
let perm_cache : (int * int array list) list Atomic.t = Atomic.make []

let rec cached_permutations n =
  match List.assoc_opt n (Atomic.get perm_cache) with
  | Some ps -> ps
  | None ->
    let ps = permutations n in
    let cur = Atomic.get perm_cache in
    if List.mem_assoc n cur then List.assoc n cur
    else if Atomic.compare_and_set perm_cache cur ((n, ps) :: cur) then ps
    else cached_permutations n

let constant_key _ _ = 0

(* The candidates are the permutations [p] that send the nodes, stably
   sorted by key, to positions [0 .. n-1]: [p.(order.(r)) = r], with every
   arrangement tried inside each block of tied keys. Because the key is
   equivariant, the candidate set of [q·s] is that of [s] composed with
   [q⁻¹], so both reach the same set of permuted states and the minimum
   fingerprint over it is an orbit invariant. *)
let canonical_fp_info ?probe ?who ?(key = constant_key) ~permute ~nodes state =
  let keys = Array.init nodes (key state) in
  let order = Array.init nodes Fun.id in
  for i = 1 to nodes - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(order.(!j)) > keys.(x) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done;
  let p = Array.make nodes 0 in
  Array.iteri (fun r node -> p.(node) <- r) order;
  (* tied blocks as (first rank, size), size >= 2 *)
  let ties = ref [] in
  let start = ref 0 in
  for r = 1 to nodes do
    if r = nodes || keys.(order.(r)) <> keys.(order.(!start)) then begin
      if r - !start >= 2 then ties := (!start, r - !start) :: !ties;
      start := r
    end
  done;
  let candidates = ref 0 in
  let identity_fp = ref None in
  let best = ref None in
  let is_identity () =
    let rec go i = i = nodes || (p.(i) = i && go (i + 1)) in
    go 0
  in
  let try_candidate () =
    incr candidates;
    let fp =
      if is_identity () then begin
        let fp = Fingerprint.of_state ?who state in
        identity_fp := Some fp;
        fp
      end
      else Fingerprint.of_state ?who (permute p state)
    in
    match !best with
    | Some b when Fingerprint.compare b fp <= 0 -> ()
    | _ -> best := Some fp
  in
  let rec arrange = function
    | [] -> try_candidate ()
    | (first, size) :: rest ->
      List.iter
        (fun q ->
          for j = 0 to size - 1 do
            p.(order.(first + j)) <- first + q.(j)
          done;
          arrange rest)
        (cached_permutations size)
  in
  arrange !ties;
  let best = Option.get !best in
  Probe.count probe "symmetry.candidates" !candidates;
  (* [sym]: the canonical fingerprint differs from the state's own. When
     the identity is not a candidate the state is not key-sorted, so no
     candidate equals it; only an attached probe pays for the comparison. *)
  let sym =
    match !identity_fp with
    | Some fp -> Fingerprint.compare best fp <> 0
    | None ->
      (not (Probe.is_on probe))
      || Fingerprint.compare best (Fingerprint.of_state ?who state) <> 0
  in
  (best, sym)

let canonical_fp ?probe ?who ?key ~permute ~nodes state =
  fst (canonical_fp_info ?probe ?who ?key ~permute ~nodes state)
