type t = {
  n : int;
  sem : Sandtable.Spec_net.semantics;
  queues : bytes list array;  (* frames, flattened [src * n + dst] *)
  conn : bool array;
}

let idx t src dst = (src * t.n) + dst

let create ~nodes sem =
  { n = nodes;
    sem;
    queues = Array.make (nodes * nodes) [];
    conn = Array.init (nodes * nodes) (fun k -> k / nodes <> k mod nodes) }

let nodes t = t.n
let connected t a b = a <> b && t.conn.(idx t a b)

let send t ~src ~dst payload =
  if not (connected t src dst) then false
  else begin
    let k = idx t src dst in
    t.queues.(k) <- t.queues.(k) @ [ Wire.frame payload ];
    true
  end

let remove_nth q index =
  let rec loop i = function
    | [] -> None
    | m :: rest ->
      if i = index then Some (m, rest)
      else
        Option.map (fun (found, rest') -> found, m :: rest') (loop (i + 1) rest)
  in
  loop 0 q

let deliver t ~src ~dst ~index =
  if t.sem = Sandtable.Spec_net.Tcp && index <> 0 then None
  else
    let k = idx t src dst in
    match remove_nth t.queues.(k) index with
    | None -> None
    | Some (frame, rest) ->
      t.queues.(k) <- rest;
      Some (Wire.unframe frame)

let drop t ~src ~dst ~index =
  if t.sem <> Sandtable.Spec_net.Udp then false
  else
    let k = idx t src dst in
    match remove_nth t.queues.(k) index with
    | None -> false
    | Some (_, rest) ->
      t.queues.(k) <- rest;
      true

let duplicate t ~src ~dst ~index =
  if t.sem <> Sandtable.Spec_net.Udp then false
  else
    let k = idx t src dst in
    match List.nth_opt t.queues.(k) index with
    | None -> false
    | Some frame ->
      t.queues.(k) <- t.queues.(k) @ [ frame ];
      true

let queue_len t ~src ~dst = List.length t.queues.(idx t src dst)

let total_in_flight t =
  Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

let set_link t a b up ~discard =
  t.conn.(idx t a b) <- up;
  t.conn.(idx t b a) <- up;
  if discard then begin
    t.queues.(idx t a b) <- [];
    t.queues.(idx t b a) <- []
  end

let partition t ~group =
  let in_group = Array.make t.n false in
  List.iter (fun nd -> in_group.(nd) <- true) group;
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      if in_group.(a) <> in_group.(b) then set_link t a b false ~discard:true
    done
  done

let heal t =
  for a = 0 to t.n - 1 do
    for b = 0 to t.n - 1 do
      if a <> b then t.conn.(idx t a b) <- true
    done
  done

let disconnect_node t nd =
  for other = 0 to t.n - 1 do
    if other <> nd then set_link t nd other false ~discard:true
  done

let reconnect_node t nd =
  for other = 0 to t.n - 1 do
    if other <> nd then set_link t nd other true ~discard:false
  done

let observe t =
  let links = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      if src <> dst then begin
        let key = Tla.Value.str (Sandtable.Trace.link_name src dst) in
        let v =
          Tla.Value.record
            [ "connected", Tla.Value.bool t.conn.(idx t src dst);
              "queue_len", Tla.Value.int (List.length t.queues.(idx t src dst)) ]
        in
        links := (key, v) :: !links
      end
    done
  done;
  Tla.Value.map !links
