open Tla

let case name f = Alcotest.test_case name `Quick f

let test_record_sorted () =
  let r = Value.record [ "z", Value.int 1; "a", Value.int 2 ] in
  match r with
  | Value.Record [ ("a", _); ("z", _) ] -> ()
  | _ -> Alcotest.fail "record fields not sorted"

let test_record_duplicate () =
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Value.record: duplicate field a") (fun () ->
      ignore (Value.record [ "a", Value.int 1; "a", Value.int 2 ]))

let test_set_dedup () =
  match Value.set [ Value.int 2; Value.int 1; Value.int 2 ] with
  | Value.Set [ Value.Int 1; Value.Int 2 ] -> ()
  | v -> Alcotest.failf "set not deduped/sorted: %a" Value.pp v

let test_map_lookup () =
  let m = Value.map [ Value.str "k", Value.int 7 ] in
  Alcotest.(check bool)
    "found" true
    (Value.find m (Value.str "k") = Some (Value.int 7));
  Alcotest.(check bool) "missing" true (Value.find m (Value.str "x") = None)

let test_field () =
  let r = Value.record [ "x", Value.bool true ] in
  Alcotest.(check bool) "field" true (Value.field r "x" = Some (Value.bool true));
  Alcotest.(check bool) "no field" true (Value.field r "y" = None)

let test_diff_equal () =
  let v =
    Value.record
      [ "a", Value.seq [ Value.int 1; Value.int 2 ];
        "b", Value.map [ Value.int 1, Value.str "x" ] ]
  in
  Alcotest.(check int) "no diffs" 0 (List.length (Value.diff ~expected:v ~actual:v))

let test_diff_paths () =
  let expected =
    Value.record
      [ "role", Value.str "leader";
        "log", Value.seq [ Value.int 1; Value.int 2 ] ]
  in
  let actual =
    Value.record
      [ "role", Value.str "follower"; "log", Value.seq [ Value.int 1 ] ]
  in
  let diffs = Value.diff ~expected ~actual in
  let paths = List.map (fun (d : Value.diff) -> d.path) diffs in
  Alcotest.(check bool) "role diff" true (List.mem "$.role" paths);
  Alcotest.(check bool) "log element diff" true (List.mem "$.log[1]" paths)

let test_diff_missing_field () =
  let expected = Value.record [ "a", Value.int 1; "b", Value.int 2 ] in
  let actual = Value.record [ "a", Value.int 1 ] in
  match Value.diff ~expected ~actual with
  | [ { path = "$.b"; expected = Some _; actual = None } ] -> ()
  | ds -> Alcotest.failf "unexpected diffs (%d)" (List.length ds)

let test_map_duplicate () =
  Alcotest.check_raises "duplicate key named"
    (Invalid_argument "Value.map: duplicate key \"k\"") (fun () ->
      ignore
        (Value.map
           [ Value.str "k", Value.int 1; Value.str "a", Value.int 0;
             Value.str "k", Value.int 2 ]))

(* The constructors and the eager [diff] as they were before the linear
   fast paths, kept as oracles. [ref_map] names the duplicated key, as
   [Value.map] now does; everything else is unchanged. *)
module Ref = struct
  open Value

  let set vs =
    let rec dedup = function
      | a :: (b :: _ as rest) when compare a b = 0 -> dedup rest
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    Set (dedup (List.sort compare vs))

  let record fields =
    let names = List.sort String.compare (List.map fst fields) in
    let rec dup = function
      | a :: b :: _ when String.equal a b -> Some a
      | _ :: rest -> dup rest
      | [] -> None
    in
    (match dup names with
    | Some n -> invalid_arg ("Value.record: duplicate field " ^ n)
    | None -> ());
    Record (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

  let map bindings =
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) bindings in
    let rec dup = function
      | (a, _) :: (b, _) :: _ when compare a b = 0 -> Some a
      | _ :: rest -> dup rest
      | [] -> None
    in
    match dup sorted with
    | Some k -> invalid_arg ("Value.map: duplicate key " ^ to_string k)
    | None -> Map sorted

  let leaf path expected actual = { path; expected; actual }

  let rec diff_at path ~expected ~actual acc =
    match expected, actual with
    | Record efs, Record afs -> diff_fields path efs afs acc
    | Map ebs, Map abs_ -> diff_bindings path ebs abs_ acc
    | Seq evs, Seq avs -> diff_indexed path 0 evs avs acc
    | _ ->
      if equal expected actual then acc
      else leaf path (Some expected) (Some actual) :: acc

  and diff_fields path efs afs acc =
    match efs, afs with
    | [], [] -> acc
    | (n, v) :: efs', [] ->
      diff_fields path efs' [] (leaf (path ^ "." ^ n) (Some v) None :: acc)
    | [], (n, v) :: afs' ->
      diff_fields path [] afs' (leaf (path ^ "." ^ n) None (Some v) :: acc)
    | (ne, ve) :: efs', (na, va) :: afs' ->
      let c = String.compare ne na in
      if c = 0 then
        diff_fields path efs' afs'
          (diff_at (path ^ "." ^ ne) ~expected:ve ~actual:va acc)
      else if c < 0 then
        diff_fields path efs' afs (leaf (path ^ "." ^ ne) (Some ve) None :: acc)
      else
        diff_fields path efs afs' (leaf (path ^ "." ^ na) None (Some va) :: acc)

  and diff_bindings path ebs abs_ acc =
    let at k = path ^ "[" ^ to_string k ^ "]" in
    match ebs, abs_ with
    | [], [] -> acc
    | (k, v) :: ebs', [] -> diff_bindings path ebs' [] (leaf (at k) (Some v) None :: acc)
    | [], (k, v) :: abs' -> diff_bindings path [] abs' (leaf (at k) None (Some v) :: acc)
    | (ke, ve) :: ebs', (ka, va) :: abs' ->
      let c = compare ke ka in
      if c = 0 then
        diff_bindings path ebs' abs' (diff_at (at ke) ~expected:ve ~actual:va acc)
      else if c < 0 then
        diff_bindings path ebs' abs_ (leaf (at ke) (Some ve) None :: acc)
      else diff_bindings path ebs abs' (leaf (at ka) None (Some va) :: acc)

  and diff_indexed path i evs avs acc =
    let at = Printf.sprintf "%s[%d]" path i in
    match evs, avs with
    | [], [] -> acc
    | v :: evs', [] -> diff_indexed path (i + 1) evs' [] (leaf at (Some v) None :: acc)
    | [], v :: avs' -> diff_indexed path (i + 1) [] avs' (leaf at None (Some v) :: acc)
    | ve :: evs', va :: avs' ->
      diff_indexed path (i + 1) evs' avs' (diff_at at ~expected:ve ~actual:va acc)

  let diff ~expected ~actual = List.rev (diff_at "$" ~expected ~actual [])
end

(* random value generator for property tests. Field names and map keys
   come from small alphabets, so generated inputs are often unsorted and
   (before [unique]) contain duplicates. *)
let gen_name = QCheck2.Gen.(map (String.make 1) (char_range 'a' 'd'))

let gen_key =
  QCheck2.Gen.(
    oneof
      [ map Value.int (int_range (-2) 2);
        map Value.str (map (String.make 1) (char_range 'a' 'c')) ])

(* keeps the first binding of each key *)
let rec unique eq = function
  | [] -> []
  | (k, v) :: rest ->
    (k, v) :: unique eq (List.filter (fun (k', _) -> not (eq k k')) rest)

let rec gen_value depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [ map Value.bool bool;
        map Value.int (int_range (-5) 5);
        map Value.str (string_size ~gen:(char_range 'a' 'e') (int_range 0 3)) ]
  else
    let sub = gen_value (depth - 1) in
    oneof
      [ map Value.set (list_size (int_range 0 3) sub);
        map Value.seq (list_size (int_range 0 3) sub);
        map Value.int (int_range (-5) 5);
        map
          (fun fs -> Value.record (unique String.equal fs))
          (list_size (int_range 0 4) (pair gen_name sub));
        map
          (fun bs -> Value.map (unique Value.equal bs))
          (list_size (int_range 0 4) (pair gen_key sub)) ]

let gen_fields n =
  QCheck2.Gen.(list_size (int_range 0 n) (pair gen_name (gen_value 1)))

let gen_bindings n =
  QCheck2.Gen.(list_size (int_range 0 n) (pair gen_key (gen_value 1)))

(* a list with a random permutation of it *)
let gen_shuffled gen =
  let by_weight (a, _) (b, _) = Int.compare a b in
  QCheck2.Gen.(
    gen >>= fun l ->
    map
      (fun ws -> l, List.map snd (List.stable_sort by_weight (List.combine ws l)))
      (list_repeat (List.length l) nat))

let outcome f x = try Ok (f x) with Invalid_argument m -> Error m

let prop_constructors_order_independent =
  QCheck2.Test.make ~name:"constructors ignore input order" ~count:300
    QCheck2.Gen.(
      triple
        (gen_shuffled (map (unique String.equal) (gen_fields 5)))
        (gen_shuffled (map (unique Value.equal) (gen_bindings 5)))
        (gen_shuffled (list_size (int_range 0 5) (gen_value 1))))
    (fun ((fs, fs'), (bs, bs'), (vs, vs')) ->
      Value.record fs = Value.record fs'
      && Value.record fs = Ref.record fs
      && Value.map bs = Value.map bs'
      && Value.map bs = Ref.map bs
      && Value.set vs = Value.set vs'
      && Value.set vs = Ref.set vs)

let prop_duplicates_rejected_as_before =
  QCheck2.Test.make ~name:"duplicate names and keys raise as before" ~count:300
    (QCheck2.Gen.pair (gen_fields 6) (gen_bindings 6))
    (fun (fs, bs) ->
      outcome Value.record fs = outcome Ref.record fs
      && outcome Value.map bs = outcome Ref.map bs)

let prop_compare_reflexive =
  QCheck2.Test.make ~name:"compare reflexive" ~count:200 (gen_value 2)
    (fun v -> Value.compare v v = 0)

let prop_diff_iff_unequal =
  QCheck2.Test.make ~name:"diff empty iff equal" ~count:200
    (QCheck2.Gen.pair (gen_value 2) (gen_value 2)) (fun (a, b) ->
      Value.equal a b = (Value.diff ~expected:a ~actual:b = []))

(* Two records, or two maps, built from one list of bindings, each binding
   kept, dropped or given a new value on the second side: pairs that share
   most of their structure, so [diff] walks fields and keys present on both
   sides. *)
let gen_near_pair =
  let open QCheck2.Gen in
  let edit (k, v) =
    oneof [ return [ k, v ]; return []; map (fun v' -> [ k, v' ]) (gen_value 2) ]
  in
  let near mk eq bindings =
    bindings >>= fun bs ->
    let bs = unique eq bs in
    map (fun bs' -> mk bs, mk (List.concat bs')) (flatten_l (List.map edit bs))
  in
  oneof
    [ near Value.record String.equal (gen_fields 5);
      near Value.map Value.equal (gen_bindings 5) ]

let prop_diff_matches_eager =
  QCheck2.Test.make ~name:"diff of unequal values as the eager walk" ~count:500
    QCheck2.Gen.(oneof [ pair (gen_value 3) (gen_value 3); gen_near_pair ])
    (fun (a, b) ->
      QCheck2.assume (not (Value.equal a b));
      Value.diff ~expected:a ~actual:b = Ref.diff ~expected:a ~actual:b)

(* A structurally equal but physically distinct copy. *)
let rec copy (v : Value.t) : Value.t =
  match v with
  | Bool b -> Bool b
  | Int i -> Int i
  | Str s -> Str (String.init (String.length s) (String.get s))
  | Set vs -> Set (List.map copy vs)
  | Seq vs -> Seq (List.map copy vs)
  | Record fs -> Record (List.map (fun (n, v) -> String.concat "" [ n ], copy v) fs)
  | Map bs -> Map (List.map (fun (k, v) -> copy k, copy v) bs)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let prop_diff_equal_no_alloc =
  QCheck2.Test.make ~name:"diff of equal values allocates nothing" ~count:200
    (gen_value 3) (fun v ->
      let v' = copy v in
      let empty = minor_words_of (fun () -> ()) in
      let words =
        minor_words_of (fun () ->
            ignore (Sys.opaque_identity (Value.diff ~expected:v ~actual:v')))
      in
      Value.diff ~expected:v ~actual:v' = [] && words -. empty = 0.)

let prop_compare_antisym =
  QCheck2.Test.make ~name:"compare antisymmetric" ~count:200
    (QCheck2.Gen.pair (gen_value 2) (gen_value 2)) (fun (a, b) ->
      Value.compare a b = -Value.compare b a)

let suite =
  ( "tla.value",
    [ case "record fields sorted" test_record_sorted;
      case "record duplicate rejected" test_record_duplicate;
      case "set dedup" test_set_dedup;
      case "map lookup" test_map_lookup;
      case "record field projection" test_field;
      case "diff of equal values" test_diff_equal;
      case "diff paths" test_diff_paths;
      case "diff missing field" test_diff_missing_field;
      case "map duplicate key named" test_map_duplicate;
      QCheck_alcotest.to_alcotest prop_compare_reflexive;
      QCheck_alcotest.to_alcotest prop_diff_iff_unequal;
      QCheck_alcotest.to_alcotest prop_compare_antisym;
      QCheck_alcotest.to_alcotest prop_constructors_order_independent;
      QCheck_alcotest.to_alcotest prop_duplicates_rejected_as_before;
      QCheck_alcotest.to_alcotest prop_diff_matches_eager;
      QCheck_alcotest.to_alcotest prop_diff_equal_no_alloc ] )
