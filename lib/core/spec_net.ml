module type MSG = sig
  type t

  val describe : t -> string
  val observe : t -> Tla.Value.t
end

type semantics = Tcp | Udp

module type S = sig
  type msg
  type t

  val create : nodes:int -> semantics -> t
  val nodes : t -> int
  val semantics : t -> semantics
  val connected : t -> int -> int -> bool
  val send : t -> src:int -> dst:int -> msg -> t * bool
  val deliverable : t -> (int * int * int * msg) list
  val peek : t -> src:int -> dst:int -> index:int -> msg option
  val describe : t -> Trace.event -> string
  val deliver : t -> src:int -> dst:int -> index:int -> (msg * t) option
  val drop : t -> src:int -> dst:int -> index:int -> t option
  val duplicate : t -> src:int -> dst:int -> index:int -> t option
  val queue : t -> src:int -> dst:int -> msg list
  val queue_len : t -> src:int -> dst:int -> int
  val max_queue_len : t -> int
  val total_in_flight : t -> int
  val partition : t -> group:int list -> t
  val heal : t -> t
  val disconnect_node : t -> int -> t
  val reconnect_node : t -> int -> t
  val fully_connected : t -> bool
  val map_queues : (msg -> msg) -> t -> t
  val permute : int array -> t -> t
  val observe : t -> Tla.Value.t
end

module Make (M : MSG) = struct
  type msg = M.t

  type t = {
    n : int;
    sem : semantics;
    queues : M.t list array;  (* flattened [src * n + dst] *)
    conn : bool array;  (* flattened, symmetric *)
  }

  let idx t src dst = (src * t.n) + dst

  let create ~nodes sem =
    { n = nodes;
      sem;
      queues = Array.make (nodes * nodes) [];
      conn = Array.init (nodes * nodes) (fun k -> k / nodes <> k mod nodes) }

  let nodes t = t.n
  let semantics t = t.sem
  let connected t a b = a <> b && t.conn.(idx t a b)
  let queue t ~src ~dst = t.queues.(idx t src dst)
  let queue_len t ~src ~dst = List.length (queue t ~src ~dst)

  let max_queue_len t =
    Array.fold_left (fun m q -> max m (List.length q)) 0 t.queues

  let total_in_flight t =
    Array.fold_left (fun acc q -> acc + List.length q) 0 t.queues

  let send t ~src ~dst msg =
    if not (connected t src dst) then t, false
    else
      let k = idx t src dst in
      ( { t with queues = Arr.update t.queues k (fun q -> q @ [ msg ]) },
        true )

  let peek t ~src ~dst ~index = List.nth_opt (queue t ~src ~dst) index

  let describe t (e : Trace.event) =
    match e with
    | Deliver { src; dst; index } -> (
      match peek t ~src ~dst ~index with Some m -> M.describe m | None -> "")
    | Timeout _ | Client _ | Crash _ | Restart _ | Partition _ | Heal | Drop _
    | Duplicate _ ->
      ""

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
    if t.sem = Tcp && index <> 0 then None
    else
      let k = idx t src dst in
      Option.map
        (fun (msg, rest) -> msg, { t with queues = Arr.set t.queues k rest })
        (remove_nth t.queues.(k) index)

  let deliverable t =
    let out = ref [] in
    for src = 0 to t.n - 1 do
      for dst = 0 to t.n - 1 do
        match t.queues.(idx t src dst) with
        | [] -> ()
        | q -> (
          match t.sem with
          | Tcp -> out := (src, dst, 0, List.hd q) :: !out
          | Udp -> List.iteri (fun i m -> out := (src, dst, i, m) :: !out) q)
      done
    done;
    List.rev !out

  let drop t ~src ~dst ~index =
    if t.sem <> Udp then None
    else
      Option.map (fun (_, t') -> t') (deliver { t with sem = Udp } ~src ~dst ~index)

  let duplicate t ~src ~dst ~index =
    if t.sem <> Udp then None
    else
      Option.map
        (fun msg ->
          let k = idx t src dst in
          { t with queues = Arr.update t.queues k (fun q -> q @ [ msg ]) })
        (peek t ~src ~dst ~index)

  let set_link t a b up ~discard =
    let ka = idx t a b and kb = idx t b a in
    let conn = Array.copy t.conn in
    conn.(ka) <- up;
    conn.(kb) <- up;
    let queues =
      if discard then begin
        let queues = Array.copy t.queues in
        queues.(ka) <- [];
        queues.(kb) <- [];
        queues
      end
      else t.queues
    in
    { t with conn; queues }

  let partition t ~group =
    let in_group = Array.make t.n false in
    List.iter (fun nd -> in_group.(nd) <- true) group;
    let t' = ref t in
    for a = 0 to t.n - 1 do
      for b = a + 1 to t.n - 1 do
        if in_group.(a) <> in_group.(b) then
          t' := set_link !t' a b false ~discard:true
      done
    done;
    !t'

  let heal t =
    { t with
      conn = Array.init (t.n * t.n) (fun k -> k / t.n <> k mod t.n) }

  let disconnect_node t nd =
    let t' = ref t in
    for other = 0 to t.n - 1 do
      if other <> nd then t' := set_link !t' nd other false ~discard:true
    done;
    !t'

  let reconnect_node t nd =
    let t' = ref t in
    for other = 0 to t.n - 1 do
      if other <> nd then t' := set_link !t' nd other true ~discard:false
    done;
    !t'

  let fully_connected t =
    let ok = ref true in
    for a = 0 to t.n - 1 do
      for b = 0 to t.n - 1 do
        if a <> b && not t.conn.(idx t a b) then ok := false
      done
    done;
    !ok

  let map_queues f t = { t with queues = Array.map (List.map f) t.queues }

  let permute p t =
    let queues = Array.make (t.n * t.n) [] in
    let conn = Array.make (t.n * t.n) false in
    for src = 0 to t.n - 1 do
      for dst = 0 to t.n - 1 do
        let k' = (p.(src) * t.n) + p.(dst) in
        queues.(k') <- t.queues.(idx t src dst);
        conn.(k') <- t.conn.(idx t src dst)
      done
    done;
    { t with queues; conn }

  let observe t =
    let links = ref [] in
    for src = t.n - 1 downto 0 do
      for dst = t.n - 1 downto 0 do
        if src <> dst then begin
          let key = Tla.Value.str (Trace.link_name src dst) in
          let q = t.queues.(idx t src dst) in
          let v =
            Tla.Value.record
              [ "connected", Tla.Value.bool t.conn.(idx t src dst);
                "queue", Tla.Value.seq (List.map M.observe q) ]
          in
          links := (key, v) :: !links
        end
      done
    done;
    Tla.Value.map !links
end
