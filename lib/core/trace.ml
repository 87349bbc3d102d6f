type node = int

(* Names for the node counts every bundled system uses are built once, at
   module initialisation, and shared read-only by every domain; observers
   call these once per node and link per observation. *)
let named_nodes = 16
let compute_name n = "n" ^ string_of_int (n + 1)
let node_names = Array.init named_nodes compute_name

let node_name n =
  if n >= 0 && n < named_nodes then Array.unsafe_get node_names n
  else compute_name n

let link_names =
  Array.init (named_nodes * named_nodes) (fun k ->
      node_names.(k / named_nodes) ^ ">" ^ node_names.(k mod named_nodes))

let link_name src dst =
  if src >= 0 && src < named_nodes && dst >= 0 && dst < named_nodes then
    Array.unsafe_get link_names ((src * named_nodes) + dst)
  else node_name src ^ ">" ^ node_name dst

type event =
  | Deliver of { src : node; dst : node; index : int }
  | Timeout of { node : node; kind : string }
  | Client of { node : node; op : string }
  | Crash of { node : node }
  | Restart of { node : node }
  | Partition of { group : node list }
  | Heal
  | Drop of { src : node; dst : node; index : int }
  | Duplicate of { src : node; dst : node; index : int }

let equal_event a b =
  match a, b with
  | Deliver x, Deliver y -> x.src = y.src && x.dst = y.dst && x.index = y.index
  | Timeout x, Timeout y -> x.node = y.node && String.equal x.kind y.kind
  | Client x, Client y -> x.node = y.node && String.equal x.op y.op
  | Crash x, Crash y -> x.node = y.node
  | Restart x, Restart y -> x.node = y.node
  | Partition x, Partition y -> x.group = y.group
  | Heal, Heal -> true
  | Drop x, Drop y -> x.src = y.src && x.dst = y.dst && x.index = y.index
  | Duplicate x, Duplicate y ->
    x.src = y.src && x.dst = y.dst && x.index = y.index
  | ( ( Deliver _ | Timeout _ | Client _ | Crash _ | Restart _ | Partition _
      | Heal | Drop _ | Duplicate _ ),
      _ ) ->
    false

let kind = function
  | Deliver _ -> "deliver"
  | Timeout _ -> "timeout"
  | Client _ -> "client"
  | Crash _ -> "crash"
  | Restart _ -> "restart"
  | Partition _ -> "partition"
  | Heal -> "heal"
  | Drop _ -> "drop"
  | Duplicate _ -> "duplicate"

let pp_nodes ppf nodes =
  Fmt.(list ~sep:(any ",") string) ppf (List.map node_name nodes)

let pp_bare ppf = function
  | Deliver { src; dst; index } ->
    Fmt.pf ppf "Deliver %s->%s [%d]" (node_name src) (node_name dst) index
  | Timeout { node; kind } -> Fmt.pf ppf "Timeout %s %s" (node_name node) kind
  | Client { node; op } -> Fmt.pf ppf "Client %s %s" (node_name node) op
  | Crash { node } -> Fmt.pf ppf "Crash %s" (node_name node)
  | Restart { node } -> Fmt.pf ppf "Restart %s" (node_name node)
  | Partition { group } -> Fmt.pf ppf "Partition {%a}" pp_nodes group
  | Heal -> Fmt.string ppf "Heal"
  | Drop { src; dst; index } ->
    Fmt.pf ppf "Drop %s->%s [%d]" (node_name src) (node_name dst) index
  | Duplicate { src; dst; index } ->
    Fmt.pf ppf "Duplicate %s->%s [%d]" (node_name src) (node_name dst) index

let pp_labelled_event label ppf e =
  pp_bare ppf e;
  if label <> "" then Fmt.pf ppf " %s" label

let pp_event = pp_labelled_event ""

type t = event list

let serialize_bare = function
  | Deliver { src; dst; index } -> Fmt.str "deliver %d %d %d" src dst index
  | Timeout { node; kind } -> Fmt.str "timeout %d %s" node kind
  | Client { node; op } -> Fmt.str "client %d %s" node op
  | Crash { node } -> Fmt.str "crash %d" node
  | Restart { node } -> Fmt.str "restart %d" node
  | Partition { group } ->
    Fmt.str "partition %s" (String.concat "," (List.map string_of_int group))
  | Heal -> "heal"
  | Drop { src; dst; index } -> Fmt.str "drop %d %d %d" src dst index
  | Duplicate { src; dst; index } -> Fmt.str "duplicate %d %d %d" src dst index

let serialize_event ?(label = "") e =
  if label = "" then serialize_bare e else serialize_bare e ^ " " ^ label

(* Binary event codec (the lib/store wire format, see Binio). Tags are
   append-only: new constructors get new tags, existing ones never change. *)

let encode_event b e =
  let open Binio in
  match e with
  | Deliver { src; dst; index } -> u8 b 0; uint b src; uint b dst; uint b index
  | Timeout { node; kind } -> u8 b 1; uint b node; str b kind
  | Client { node; op } -> u8 b 2; uint b node; str b op
  | Crash { node } -> u8 b 3; uint b node
  | Restart { node } -> u8 b 4; uint b node
  | Partition { group } ->
    u8 b 5;
    uint b (List.length group);
    List.iter (uint b) group
  | Heal -> u8 b 6
  | Drop { src; dst; index } -> u8 b 7; uint b src; uint b dst; uint b index
  | Duplicate { src; dst; index } ->
    u8 b 8; uint b src; uint b dst; uint b index

let decode_event src =
  let open Binio in
  match read_u8 src with
  | 0 ->
    let s = read_uint src in
    let d = read_uint src in
    Deliver { src = s; dst = d; index = read_uint src }
  | 1 ->
    let node = read_uint src in
    Timeout { node; kind = read_str src }
  | 2 ->
    let node = read_uint src in
    Client { node; op = read_str src }
  | 3 -> Crash { node = read_uint src }
  | 4 -> Restart { node = read_uint src }
  | 5 ->
    let n = read_uint src in
    Partition { group = List.init n (fun _ -> read_uint src) }
  | 6 -> Heal
  | 7 ->
    let s = read_uint src in
    let d = read_uint src in
    Drop { src = s; dst = d; index = read_uint src }
  | 8 ->
    let s = read_uint src in
    let d = read_uint src in
    Duplicate { src = s; dst = d; index = read_uint src }
  | tag -> raise (Binio.Corrupt (Printf.sprintf "unknown event tag %d" tag))

(* Section kind 1 was the previous generation, whose deliveries carried
   their message descriptor. *)
let file_kind = 3
let retired_kind = 1

let save path trace =
  Binio.write_file path ~kind:file_kind (fun sink ->
      Binio.uint sink (List.length trace);
      List.iter (encode_event sink) trace)

(* [labels] may be shorter than the trace: missing labels are empty. *)
let iter_labelled f trace labels =
  ignore
    (List.fold_left
       (fun (i, labels) e ->
         match labels with
         | l :: rest -> f i e l; (i + 1, rest)
         | [] -> f i e ""; (i + 1, []))
       (0, labels) trace)

let save_text path ~labels trace =
  Binio.atomic_write path (fun oc ->
      iter_labelled
        (fun _ e label ->
          output_string oc (serialize_event ~label e);
          output_char oc '\n')
        trace labels)

let load path =
  match Binio.section_kind path with
  | None ->
    Error
      (path
     ^ ": not a binary trace file (text traces, the format before the \
        binary envelope, are no longer read)")
  | Some k when k = retired_kind ->
    Error
      (Printf.sprintf
         "%s: a trace of the previous generation (section kind %d, \
          deliveries carry their message descriptor); this build reads \
          section kind %d only"
         path k file_kind)
  | Some _ -> (
    match
      let src = Binio.read_file path ~kind:file_kind in
      let n = Binio.read_uint src in
      List.init n (fun _ -> decode_event src)
    with
    | events -> Ok events
    | exception Binio.Corrupt m -> Error m)

let pp_labelled labels ppf trace =
  iter_labelled
    (fun i e label -> Fmt.pf ppf "%3d. %a@." (i + 1) (pp_labelled_event label) e)
    trace labels

let pp = pp_labelled []

let to_string t = Fmt.str "%a" pp t
