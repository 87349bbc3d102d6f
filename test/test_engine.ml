let case name f = Alcotest.test_case name `Quick f

let test_vclock () =
  let c = Engine.Vclock.create () in
  let t1 = Engine.Vclock.read_us c in
  let t2 = Engine.Vclock.read_us c in
  Alcotest.(check bool) "reads are monotonic" true (t2 > t1);
  Engine.Vclock.advance_ms c 5;
  let t3 = Engine.Vclock.peek_us c in
  Alcotest.(check bool) "advance jumps 5ms" true (t3 - t2 = 5000)

let test_wire () =
  let payload = Bytes.of_string "hello" in
  let frame = Engine.Wire.frame payload in
  Alcotest.(check int) "length field" 5 (Engine.Wire.payload_length frame);
  Alcotest.(check string) "roundtrip" "hello"
    (Bytes.to_string (Engine.Wire.unframe frame));
  Alcotest.check_raises "bad magic" (Engine.Wire.Corrupt "bad magic")
    (fun () ->
      let bad = Bytes.copy frame in
      Bytes.set bad 0 'x';
      ignore (Engine.Wire.unframe bad));
  Alcotest.check_raises "short" (Engine.Wire.Corrupt "short frame") (fun () ->
      ignore (Engine.Wire.unframe (Bytes.of_string "ab")))

let test_proxy_tcp () =
  let p = Engine.Proxy.create ~nodes:2 Sandtable.Spec_net.Tcp in
  Alcotest.(check bool) "send" true (Engine.Proxy.send p ~src:0 ~dst:1 (Bytes.of_string "a"));
  Alcotest.(check bool) "send2" true (Engine.Proxy.send p ~src:0 ~dst:1 (Bytes.of_string "b"));
  Alcotest.(check bool) "no index-1 delivery" true
    (Engine.Proxy.deliver p ~src:0 ~dst:1 ~index:1 = None);
  (match Engine.Proxy.deliver p ~src:0 ~dst:1 ~index:0 with
  | Some payload -> Alcotest.(check string) "fifo head" "a" (Bytes.to_string payload)
  | None -> Alcotest.fail "delivery failed");
  Engine.Proxy.partition p ~group:[ 0 ];
  Alcotest.(check bool) "cut" false (Engine.Proxy.connected p 0 1);
  Alcotest.(check int) "queue cleared" 0 (Engine.Proxy.queue_len p ~src:0 ~dst:1);
  Alcotest.(check bool) "send fails" false
    (Engine.Proxy.send p ~src:0 ~dst:1 (Bytes.of_string "c"));
  Engine.Proxy.heal p;
  Alcotest.(check bool) "healed" true (Engine.Proxy.connected p 0 1)

let test_proxy_udp () =
  let p = Engine.Proxy.create ~nodes:2 Sandtable.Spec_net.Udp in
  ignore (Engine.Proxy.send p ~src:0 ~dst:1 (Bytes.of_string "a"));
  ignore (Engine.Proxy.send p ~src:0 ~dst:1 (Bytes.of_string "b"));
  Alcotest.(check bool) "dup" true (Engine.Proxy.duplicate p ~src:0 ~dst:1 ~index:0);
  Alcotest.(check int) "3 frames" 3 (Engine.Proxy.queue_len p ~src:0 ~dst:1);
  Alcotest.(check bool) "drop" true (Engine.Proxy.drop p ~src:0 ~dst:1 ~index:1);
  match Engine.Proxy.deliver p ~src:0 ~dst:1 ~index:1 with
  | Some payload -> Alcotest.(check string) "reordered" "a" (Bytes.to_string payload)
  | None -> Alcotest.fail "udp delivery failed"

let test_log_parser () =
  let lp = Engine.Log_parser.create () in
  Engine.Log_parser.feed lp "boot complete";
  Engine.Log_parser.feed lp "STATE role=follower term=1";
  Engine.Log_parser.feed lp "STATE role=leader term=3 commit=2";
  Alcotest.(check (option string)) "latest role" (Some "leader")
    (Engine.Log_parser.lookup lp "role");
  Alcotest.(check (option int)) "term" (Some 3) (Engine.Log_parser.lookup_int lp "term");
  Alcotest.(check (option int)) "commit" (Some 2)
    (Engine.Log_parser.lookup_int lp "commit");
  Alcotest.(check int) "raw lines kept" 3 (List.length (Engine.Log_parser.lines lp));
  Engine.Log_parser.clear lp;
  Alcotest.(check (option string)) "cleared" None (Engine.Log_parser.lookup lp "role")

let test_cost_model () =
  let profile =
    Engine.Cost.profile ~init_ms:100. ~per_event_ms:10. ~async_sleep_ms:5.
      ~crash_restart_ms:50. ()
  in
  let cost = Engine.Cost.create profile in
  Engine.Cost.start_trace cost;
  Engine.Cost.charge_event cost (Sandtable.Trace.Timeout { node = 0; kind = "x" });
  Engine.Cost.charge_event cost (Sandtable.Trace.Restart { node = 0 });
  (* 100 + (10+5) + (10+5+50) *)
  Alcotest.(check (float 0.01)) "virtual ms" 180. (Engine.Cost.virtual_ms cost);
  Engine.Cost.real_add cost 0.5;
  Alcotest.(check (float 0.01)) "total" 680. (Engine.Cost.total_ms cost)

(* cluster lifecycle with a trivial echo node *)
let echo_boot : Engine.Syscall.boot =
 fun ctx ->
  let received = ref 0 in
  ctx.persist_set "boots"
    (string_of_int
       (1 + Option.value ~default:0
              (Option.bind (ctx.persist_get "boots") int_of_string_opt)));
  { Engine.Syscall.handle_message =
      (fun ~src payload ->
        incr received;
        if Bytes.to_string payload = "boom" then failwith "echo node crash";
        ignore (ctx.send ~dst:src payload));
    on_timeout = (fun ~kind:_ -> ());
    on_client =
      (fun ~op -> ignore (ctx.send ~dst:((ctx.id + 1) mod ctx.nodes) (Bytes.of_string op)));
    observe =
      (fun () ->
        Tla.Value.record
          [ "received", Tla.Value.int !received;
            ( "boots",
              Tla.Value.int
                (Option.value ~default:0
                   (Option.bind (ctx.persist_get "boots") int_of_string_opt)) )
          ]) }

let echo_cluster () =
  Engine.Cluster.create
    { Engine.Cluster.nodes = 2;
      semantics = Sandtable.Spec_net.Tcp;
      timeouts = [ "tick", 10 ];
      clock_skew_ms = [];
      cost = Engine.Cost.profile ();
      boot = echo_boot }

let test_cluster_roundtrip () =
  let c = echo_cluster () in
  (match Engine.Cluster.execute c (Sandtable.Trace.Client { node = 0; op = "ping" }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "client failed: %a" Engine.Cluster.pp_error e);
  (match
     Engine.Cluster.execute c
       (Sandtable.Trace.Deliver { src = 0; dst = 1; index = 0 })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delivery failed: %a" Engine.Cluster.pp_error e);
  match Engine.Cluster.observe_node c 1 with
  | Some obs ->
    Alcotest.(check bool) "node 1 received" true
      (Tla.Value.field obs "received" = Some (Tla.Value.int 1))
  | None -> Alcotest.fail "node 1 should be observable"

let test_cluster_not_enabled () =
  let c = echo_cluster () in
  match
    Engine.Cluster.execute c
      (Sandtable.Trace.Deliver { src = 0; dst = 1; index = 0 })
  with
  | Error (Engine.Cluster.Not_enabled _) -> ()
  | _ -> Alcotest.fail "empty queue delivery must be rejected"

let test_cluster_crash_restart_persistence () =
  let c = echo_cluster () in
  (match Engine.Cluster.execute c (Sandtable.Trace.Crash { node = 0 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "crash failed: %a" Engine.Cluster.pp_error e);
  Alcotest.(check bool) "down" true (Engine.Cluster.observe_node c 0 = None);
  (* crash twice is not enabled *)
  (match Engine.Cluster.execute c (Sandtable.Trace.Crash { node = 0 }) with
  | Error (Engine.Cluster.Not_enabled _) -> ()
  | _ -> Alcotest.fail "double crash");
  (match Engine.Cluster.execute c (Sandtable.Trace.Restart { node = 0 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restart failed: %a" Engine.Cluster.pp_error e);
  match Engine.Cluster.observe_node c 0 with
  | Some obs ->
    (* persistent boot counter survived the crash: booted twice *)
    Alcotest.(check bool) "persistence" true
      (Tla.Value.field obs "boots" = Some (Tla.Value.int 2))
  | None -> Alcotest.fail "restarted node observable"

let test_cluster_impl_crash_captured () =
  let c = echo_cluster () in
  ignore (Engine.Cluster.execute c (Sandtable.Trace.Client { node = 0; op = "boom" }));
  match
    Engine.Cluster.execute c
      (Sandtable.Trace.Deliver { src = 0; dst = 1; index = 0 })
  with
  | Error (Engine.Cluster.Impl_crash { node = 1; _ }) ->
    (match Engine.Cluster.status c 1 with
    | Engine.Cluster.Faulted _ -> ()
    | _ -> Alcotest.fail "node should be faulted")
  | _ -> Alcotest.fail "implementation exception must be captured"

let suite =
  ( "engine",
    [ case "virtual clock" test_vclock;
      case "wire framing" test_wire;
      case "proxy tcp" test_proxy_tcp;
      case "proxy udp" test_proxy_udp;
      case "log parser" test_log_parser;
      case "cost model" test_cost_model;
      case "cluster message roundtrip" test_cluster_roundtrip;
      case "cluster not-enabled events" test_cluster_not_enabled;
      case "crash/restart persistence" test_cluster_crash_restart_persistence;
      case "impl exceptions captured" test_cluster_impl_crash_captured ] )
