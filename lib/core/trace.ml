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
  | Deliver of { src : node; dst : node; index : int; desc : string }
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

let pp_event ppf = function
  | Deliver { src; dst; index; desc } ->
    Fmt.pf ppf "Deliver %s->%s [%d] %s" (node_name src) (node_name dst) index desc
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

type t = event list

let serialize_event = function
  | Deliver { src; dst; index; desc } ->
    Fmt.str "deliver %d %d %d %s" src dst index desc
  | Timeout { node; kind } -> Fmt.str "timeout %d %s" node kind
  | Client { node; op } -> Fmt.str "client %d %s" node op
  | Crash { node } -> Fmt.str "crash %d" node
  | Restart { node } -> Fmt.str "restart %d" node
  | Partition { group } ->
    Fmt.str "partition %s" (String.concat "," (List.map string_of_int group))
  | Heal -> "heal"
  | Drop { src; dst; index } -> Fmt.str "drop %d %d %d" src dst index
  | Duplicate { src; dst; index } -> Fmt.str "duplicate %d %d %d" src dst index

let parse_event line =
  let int_of s = int_of_string_opt s in
  let fail () = Error line in
  match String.split_on_char ' ' line with
  | "deliver" :: s :: d :: i :: desc -> (
    match int_of s, int_of d, int_of i with
    | Some src, Some dst, Some index ->
      Ok (Deliver { src; dst; index; desc = String.concat " " desc })
    | _ -> fail ())
  | [ "timeout"; n; kind ] -> (
    match int_of n with Some node -> Ok (Timeout { node; kind }) | None -> fail ())
  | "client" :: n :: op -> (
    match int_of n with
    | Some node -> Ok (Client { node; op = String.concat " " op })
    | None -> fail ())
  | [ "crash"; n ] -> (
    match int_of n with Some node -> Ok (Crash { node }) | None -> fail ())
  | [ "restart"; n ] -> (
    match int_of n with Some node -> Ok (Restart { node }) | None -> fail ())
  | [ "partition"; g ] -> (
    let parts = String.split_on_char ',' g |> List.map int_of in
    if List.for_all Option.is_some parts then
      Ok (Partition { group = List.map Option.get parts })
    else fail ())
  | [ "heal" ] -> Ok Heal
  | [ "drop"; s; d; i ] -> (
    match int_of s, int_of d, int_of i with
    | Some src, Some dst, Some index -> Ok (Drop { src; dst; index })
    | _ -> fail ())
  | [ "duplicate"; s; d; i ] -> (
    match int_of s, int_of d, int_of i with
    | Some src, Some dst, Some index -> Ok (Duplicate { src; dst; index })
    | _ -> fail ())
  | _ -> fail ()

(* Binary event codec (the lib/store wire format, see Binio). Tags are
   append-only: new constructors get new tags, existing ones never change. *)

let encode_event b e =
  let open Binio in
  match e with
  | Deliver { src; dst; index; desc } ->
    u8 b 0; uint b src; uint b dst; uint b index; str b desc
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
    let index = read_uint src in
    Deliver { src = s; dst = d; index; desc = read_str src }
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

let file_kind = 1

let save path trace =
  Binio.write_file path ~kind:file_kind (fun sink ->
      Binio.uint sink (List.length trace);
      List.iter (encode_event sink) trace)

let save_text path trace =
  Binio.atomic_write path (fun oc ->
      List.iter
        (fun e ->
          output_string oc (serialize_event e);
          output_char oc '\n')
        trace)

(* Pre-Binio trace files were textual, one serialize_event line per event;
   still loadable, but without truncation detection. *)
let load_legacy path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> read acc
        | line -> (
          match parse_event line with
          | Ok e -> read (e :: acc)
          | Error _ as e -> e)
      in
      read [])

let load path =
  if not (Binio.looks_binary path) then load_legacy path
  else
    match
      let src = Binio.read_file path ~kind:file_kind in
      let n = Binio.read_uint src in
      List.init n (fun _ -> decode_event src)
    with
    | events -> Ok events
    | exception Binio.Corrupt m -> Error m

let pp ppf trace =
  List.iteri (fun i e -> Fmt.pf ppf "%3d. %a@." (i + 1) pp_event e) trace

let to_string t = Fmt.str "%a" pp t
