type config = {
  nodes : int;
  semantics : Sandtable.Spec_net.semantics;
  timeouts : (string * int) list;
  clock_skew_ms : (int * int) list;
  cost : Cost.profile;
  boot : Syscall.boot;
}

type node_status = Running | Crashed | Faulted of string

type t = {
  cfg : config;
  proxy : Proxy.t;
  clocks : Vclock.t array;
  logs : Log_parser.t array;
  persist : (string, string) Hashtbl.t array;
  handles : Syscall.handle option array;
  statuses : node_status array;
  alloc : int array;
  cost_acc : Cost.t;
}

type error =
  | Not_enabled of string
  | Impl_crash of { node : int; exn_ : string }

let pp_error ppf = function
  | Not_enabled reason -> Fmt.pf ppf "event not enabled: %s" reason
  | Impl_crash { node; exn_ } ->
    Fmt.pf ppf "implementation crash on %s: %s"
      (Sandtable.Trace.node_name node) exn_

let ctx_for t id =
  { Syscall.id;
    nodes = t.cfg.nodes;
    send = (fun ~dst payload -> Proxy.send t.proxy ~src:id ~dst payload);
    now_us = (fun () -> Vclock.read_us t.clocks.(id));
    log = (fun line -> Log_parser.feed t.logs.(id) line);
    persist_set = (fun k v -> Hashtbl.replace t.persist.(id) k v);
    persist_get = (fun k -> Hashtbl.find_opt t.persist.(id) k);
    alloc = (fun n -> t.alloc.(id) <- t.alloc.(id) + n);
    free = (fun n -> t.alloc.(id) <- t.alloc.(id) - n) }

let boot_node t id =
  t.handles.(id) <- Some (t.cfg.boot (ctx_for t id));
  t.statuses.(id) <- Running

let create cfg =
  let t =
    { cfg;
      proxy = Proxy.create ~nodes:cfg.nodes cfg.semantics;
      clocks =
        (let clocks = Array.init cfg.nodes (fun _ -> Vclock.create ()) in
         List.iter
           (fun (node, ms) ->
             if node >= 0 && node < cfg.nodes then
               Vclock.advance_ms clocks.(node) ms)
           cfg.clock_skew_ms;
         clocks);
      logs = Array.init cfg.nodes (fun _ -> Log_parser.create ());
      persist = Array.init cfg.nodes (fun _ -> Hashtbl.create 16);
      handles = Array.make cfg.nodes None;
      statuses = Array.make cfg.nodes Crashed;
      alloc = Array.make cfg.nodes 0;
      cost_acc = Cost.create cfg.cost }
  in
  Cost.start_trace t.cost_acc;
  for id = 0 to cfg.nodes - 1 do
    boot_node t id
  done;
  t

let running_handle t node =
  match t.statuses.(node), t.handles.(node) with
  | Running, Some h -> Ok h
  | Crashed, _ ->
    Error (Not_enabled (Sandtable.Trace.node_name node ^ " is crashed"))
  | Faulted e, _ ->
    Error (Impl_crash { node; exn_ = "node previously faulted: " ^ e })
  | Running, None -> assert false

(* Run an implementation callback, converting raised exceptions into a
   captured implementation fault: the node is treated as dead thereafter. *)
let guarded t node f =
  match f () with
  | () -> Ok ()
  | exception exn_ ->
    let repr = Printexc.to_string exn_ in
    t.statuses.(node) <- Faulted repr;
    t.handles.(node) <- None;
    Proxy.disconnect_node t.proxy node;
    Error (Impl_crash { node; exn_ = repr })

let timeout_duration t kind =
  match List.assoc_opt kind t.cfg.timeouts with Some ms -> ms | None -> 100

let execute_inner t (event : Sandtable.Trace.event) =
  match event with
  | Deliver { src; dst; index } -> (
    match running_handle t dst with
    | Error e -> Error e
    | Ok h -> (
      match Proxy.deliver t.proxy ~src ~dst ~index with
      | None ->
        Error
          (Not_enabled
             (Fmt.str "no message %s->%s at index %d"
                (Sandtable.Trace.node_name src)
                (Sandtable.Trace.node_name dst)
                index))
      | Some payload -> guarded t dst (fun () -> h.handle_message ~src payload)))
  | Timeout { node; kind } -> (
    match running_handle t node with
    | Error e -> Error e
    | Ok h ->
      Vclock.advance_ms t.clocks.(node) (timeout_duration t kind);
      guarded t node (fun () -> h.on_timeout ~kind))
  | Client { node; op } -> (
    match running_handle t node with
    | Error e -> Error e
    | Ok h -> guarded t node (fun () -> h.on_client ~op))
  | Crash { node } ->
    if t.statuses.(node) <> Running then
      Error (Not_enabled (Sandtable.Trace.node_name node ^ " is not running"))
    else begin
      (* SIGQUIT semantics: no cleanup, volatile state and connections die. *)
      t.handles.(node) <- None;
      t.statuses.(node) <- Crashed;
      t.alloc.(node) <- 0;
      Log_parser.clear t.logs.(node);
      Proxy.disconnect_node t.proxy node;
      Ok ()
    end
  | Restart { node } ->
    if t.statuses.(node) <> Crashed then
      Error (Not_enabled (Sandtable.Trace.node_name node ^ " is not crashed"))
    else begin
      Proxy.reconnect_node t.proxy node;
      boot_node t node;
      Ok ()
    end
  | Partition { group } ->
    Proxy.partition t.proxy ~group;
    Ok ()
  | Heal ->
    Proxy.heal t.proxy;
    (* Crashed/faulted nodes stay disconnected. *)
    Array.iteri
      (fun node status ->
        match status with
        | Running -> ()
        | Crashed | Faulted _ -> Proxy.disconnect_node t.proxy node)
      t.statuses;
    Ok ()
  | Drop { src; dst; index } ->
    if Proxy.drop t.proxy ~src ~dst ~index then Ok ()
    else Error (Not_enabled "nothing to drop")
  | Duplicate { src; dst; index } ->
    if Proxy.duplicate t.proxy ~src ~dst ~index then Ok ()
    else Error (Not_enabled "nothing to duplicate")

let execute t event =
  let started = Unix.gettimeofday () in
  let result = execute_inner t event in
  Cost.real_add t.cost_acc (Unix.gettimeofday () -. started);
  Cost.charge_event t.cost_acc event;
  result

let run_trace t events =
  let rec loop i = function
    | [] -> Ok ()
    | e :: rest -> (
      match execute t e with
      | Ok () -> loop (i + 1) rest
      | Error err -> Error (err, i))
  in
  loop 0 events

let observe_node t node =
  match t.statuses.(node), t.handles.(node) with
  | Running, Some h -> Some (h.observe ())
  | _, _ -> None

let observe_net t = Proxy.observe t.proxy
let log_parser t node = t.logs.(node)
let status t node = t.statuses.(node)
let allocated_bytes t node = t.alloc.(node)
let cost t = t.cost_acc
let config t = t.cfg
