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
   fingerprint over it is an orbit invariant. Returns the minimum and the
   number of fingerprinted candidates; [own], the state's own fingerprint
   when the caller already has it, stands in for the identity candidate. *)
let minimise ?who ~key ~permute ~nodes ~own state =
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
  let best = ref None in
  let is_identity () =
    let rec go i = i = nodes || (p.(i) = i && go (i + 1)) in
    go 0
  in
  let try_candidate () =
    incr candidates;
    let fp =
      if not (is_identity ()) then
        Fingerprint.of_candidate ?who (permute p state)
      else match own with
        | Some fp -> fp
        | None -> Fingerprint.of_state ?who state
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
  (Option.get !best, !candidates)

let canonical_fp ?probe ?who ?(key = constant_key) ~permute ~nodes state =
  let best, candidates = minimise ?who ~key ~permute ~nodes ~own:None state in
  Probe.count probe "symmetry.candidates" candidates;
  best

(* [sym] compares against the own fingerprint: a non-identity candidate
   never reproduces the state itself (it would make the state key-sorted,
   and then the identity is a candidate too), so the flag is exact. *)
let canonicalise ?probe ?who ~key ~permute ~nodes ~own state =
  let best, candidates =
    minimise ?who ~key ~permute ~nodes ~own:(Some own) state
  in
  Probe.count probe "symmetry.candidates" candidates;
  (best, not (Fingerprint.equal best own), candidates)

(* ---- orbit cache ---------------------------------------------------------

   Direct-mapped by the low bits of the own fingerprint's [lo] half, three
   words per entry: [hi], [lo] and a meta word packing the
   canonicalisation's [sym] bit (bit 0), candidate count (bits 1–20) and
   marshalled bytes (bits 21 and up). Meta 0 marks an empty entry — a
   recorded canonicalisation has at least one candidate. The words live in
   a [Bigarray], off the OCaml heap, so the major GC never scans or copies
   them. A canonicalisation whose counts do not fit is simply not
   recorded. *)

let cache_bits = 14
let cache_entries = 1 lsl cache_bits
let candidate_bits = 20
let bytes_shift = 1 + candidate_bits

type cache = {
  entries : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable lookups : int;
  mutable hits : int;
}

let cache () =
  let entries = Bigarray.(Array1.create int c_layout (3 * cache_entries)) in
  Bigarray.Array1.fill entries 0;
  { entries; lookups = 0; hits = 0 }

let[@inline] slot (own : Fingerprint.t) = 3 * (own.lo land (cache_entries - 1))

let recall ?probe c (own : Fingerprint.t) =
  c.lookups <- c.lookups + 1;
  let e = c.entries in
  let i = slot own in
  let meta = Bigarray.Array1.unsafe_get e (i + 2) in
  if
    meta <> 0
    && Bigarray.Array1.unsafe_get e i = own.hi
    && Bigarray.Array1.unsafe_get e (i + 1) = own.lo
  then begin
    c.hits <- c.hits + 1;
    Probe.count probe "symmetry.candidates"
      ((meta lsr 1) land ((1 lsl candidate_bits) - 1));
    Probe.count probe "fp.bytes" (meta lsr bytes_shift);
    Some (meta land 1 = 1)
  end
  else None

let remember c (own : Fingerprint.t) ~sym ~candidates ~bytes =
  if candidates < 1 lsl candidate_bits && bytes < 1 lsl (62 - bytes_shift)
  then begin
    let e = c.entries in
    let i = slot own in
    Bigarray.Array1.unsafe_set e i own.hi;
    Bigarray.Array1.unsafe_set e (i + 1) own.lo;
    Bigarray.Array1.unsafe_set e (i + 2)
      ((bytes lsl bytes_shift) lor (candidates lsl 1) lor Bool.to_int sym)
  end

let hit_ratio caches =
  let sum f = List.fold_left (fun n c -> n + f c) 0 caches in
  match sum (fun c -> c.lookups) with
  | 0 -> None
  | lookups ->
    Some (float_of_int (sum (fun c -> c.hits)) /. float_of_int lookups)
