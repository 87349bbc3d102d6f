type t =
  | Bool of bool
  | Int of int
  | Str of string
  | Set of t list
  | Seq of t list
  | Record of (string * t) list
  | Map of (t * t) list

let bool b = Bool b
let int i = Int i
let str s = Str s

(* Constructor tag order defines a total order across differently-shaped
   values so that heterogeneous sets still sort deterministically. *)
let tag = function
  | Bool _ -> 0
  | Int _ -> 1
  | Str _ -> 2
  | Set _ -> 3
  | Seq _ -> 4
  | Record _ -> 5
  | Map _ -> 6

let rec compare a b =
  match a, b with
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Set x, Set y | Seq x, Seq y -> compare_list x y
  | Record x, Record y -> compare_fields x y
  | Map x, Map y -> compare_bindings x y
  | _ -> Int.compare (tag a) (tag b)

and compare_list x y =
  match x, y with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | a :: x', b :: y' ->
    let c = compare a b in
    if c <> 0 then c else compare_list x' y'

and compare_fields x y =
  match x, y with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (na, va) :: x', (nb, vb) :: y' ->
    let c = String.compare na nb in
    if c <> 0 then c
    else
      let c = compare va vb in
      if c <> 0 then c else compare_fields x' y'

and compare_bindings x y =
  match x, y with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (ka, va) :: x', (kb, vb) :: y' ->
    let c = compare ka kb in
    if c <> 0 then c
    else
      let c = compare va vb in
      if c <> 0 then c else compare_bindings x' y'

let equal a b = compare a b = 0

(* The constructors first check, in one allocation-free pass, whether the
   input is already strictly increasing in canonical order. Builders that
   list their fields and bindings in that order (every observer in this
   repository) take that path; any other order is sorted once and then
   scanned for adjacent duplicates. *)
let rec strictly_sorted cmp = function
  | a :: (b :: _ as rest) -> cmp a b < 0 && strictly_sorted cmp rest
  | [ _ ] | [] -> true

let rec first_dup cmp = function
  | a :: (b :: _ as rest) -> if cmp a b = 0 then Some a else first_dup cmp rest
  | [ _ ] | [] -> None

let set vs =
  if strictly_sorted compare vs then Set vs else Set (List.sort_uniq compare vs)

let seq vs = Seq vs

let rec pp ppf = function
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Set vs -> Fmt.pf ppf "{@[%a@]}" Fmt.(list ~sep:(any ", ") pp) vs
  | Seq vs -> Fmt.pf ppf "<<@[%a@]>>" Fmt.(list ~sep:(any ", ") pp) vs
  | Record fs ->
    let pp_field ppf (n, v) = Fmt.pf ppf "%s |-> %a" n pp v in
    Fmt.pf ppf "[@[%a@]]" Fmt.(list ~sep:(any ", ") pp_field) fs
  | Map bs ->
    let pp_binding ppf (k, v) = Fmt.pf ppf "%a :> %a" pp k pp v in
    Fmt.pf ppf "(@[%a@])" Fmt.(list ~sep:(any ", ") pp_binding) bs

let to_string v = Fmt.str "%a" pp v

let by_name (a, _) (b, _) = String.compare a b
let by_key (a, _) (b, _) = compare a b

let record fields =
  if strictly_sorted by_name fields then Record fields
  else
    let sorted = List.sort by_name fields in
    match first_dup by_name sorted with
    | Some (n, _) -> invalid_arg ("Value.record: duplicate field " ^ n)
    | None -> Record sorted

let map bindings =
  if strictly_sorted by_key bindings then Map bindings
  else
    let sorted = List.sort by_key bindings in
    match first_dup by_key sorted with
    | Some (k, _) -> invalid_arg ("Value.map: duplicate key " ^ to_string k)
    | None -> Map sorted

let rec field_in name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then Some v else field_in name rest

let field v name =
  match v with
  | Record fs -> field_in name fs
  | Bool _ | Int _ | Str _ | Set _ | Seq _ | Map _ -> None

let find m k =
  match m with
  | Map bs -> List.find_map (fun (k', v) -> if equal k k' then Some v else None) bs
  | Bool _ | Int _ | Str _ | Set _ | Seq _ | Record _ -> None

type diff = { path : string; expected : t option; actual : t option }

let pp_side ppf = function
  | None -> Fmt.string ppf "<absent>"
  | Some v -> pp ppf v

let pp_diff ppf d =
  Fmt.pf ppf "@[%s:@ expected %a,@ actual %a@]" d.path pp_side d.expected
    pp_side d.actual

let leaf path expected actual = { path; expected; actual }

let rec diff_at path ~expected ~actual acc =
  match expected, actual with
  | Record efs, Record afs -> diff_fields path efs afs acc
  | Map ebs, Map abs_ -> diff_bindings path ebs abs_ acc
  | Seq evs, Seq avs -> diff_indexed path 0 evs avs acc
  | Set _, Set _ | Bool _, Bool _ | Int _, Int _ | Str _, Str _ ->
    if equal expected actual then acc
    else leaf path (Some expected) (Some actual) :: acc
  | _ ->
    if equal expected actual then acc
    else leaf path (Some expected) (Some actual) :: acc

and diff_fields path efs afs acc =
  (* Both field lists are sorted by construction; merge-walk them. *)
  match efs, afs with
  | [], [] -> acc
  | (n, v) :: efs', [] ->
    diff_fields path efs' [] (leaf (path ^ "." ^ n) (Some v) None :: acc)
  | [], (n, v) :: afs' ->
    diff_fields path [] afs' (leaf (path ^ "." ^ n) None (Some v) :: acc)
  | (ne, ve) :: efs', (na, va) :: afs' ->
    let c = String.compare ne na in
    if c = 0 then
      diff_fields path efs' afs' (diff_at (path ^ "." ^ ne) ~expected:ve ~actual:va acc)
    else if c < 0 then
      diff_fields path efs' afs (leaf (path ^ "." ^ ne) (Some ve) None :: acc)
    else diff_fields path efs afs' (leaf (path ^ "." ^ na) None (Some va) :: acc)

and diff_bindings path ebs abs_ acc =
  match ebs, abs_ with
  | [], [] -> acc
  | (k, v) :: ebs', [] ->
    let p = path ^ "[" ^ to_string k ^ "]" in
    diff_bindings path ebs' [] (leaf p (Some v) None :: acc)
  | [], (k, v) :: abs' ->
    let p = path ^ "[" ^ to_string k ^ "]" in
    diff_bindings path [] abs' (leaf p None (Some v) :: acc)
  | (ke, ve) :: ebs', (ka, va) :: abs' ->
    let c = compare ke ka in
    if c = 0 then
      let p = path ^ "[" ^ to_string ke ^ "]" in
      diff_bindings path ebs' abs' (diff_at p ~expected:ve ~actual:va acc)
    else if c < 0 then
      let p = path ^ "[" ^ to_string ke ^ "]" in
      diff_bindings path ebs' abs_ (leaf p (Some ve) None :: acc)
    else
      let p = path ^ "[" ^ to_string ka ^ "]" in
      diff_bindings path ebs abs' (leaf p None (Some va) :: acc)

and diff_indexed path i evs avs acc =
  match evs, avs with
  | [], [] -> acc
  | v :: evs', [] ->
    let p = Printf.sprintf "%s[%d]" path i in
    diff_indexed path (i + 1) evs' [] (leaf p (Some v) None :: acc)
  | [], v :: avs' ->
    let p = Printf.sprintf "%s[%d]" path i in
    diff_indexed path (i + 1) [] avs' (leaf p None (Some v) :: acc)
  | ve :: evs', va :: avs' ->
    let p = Printf.sprintf "%s[%d]" path i in
    diff_indexed path (i + 1) evs' avs' (diff_at p ~expected:ve ~actual:va acc)

(* [diff_at] walks the same merge order as [compare], so equal values have
   no discrepancy; checking that first builds no path string for them. *)
let diff ~expected ~actual =
  if equal expected actual then []
  else List.rev (diff_at "$" ~expected ~actual [])
