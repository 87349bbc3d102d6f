(* Linearizability checking of a replicated key-value store (Xraft-KV#1).

     dune exec examples/kv_linearizability.exe

   The buggy leader answers Get requests from its local applied state
   without confirming it still leads; after a partition elects a new leader
   that commits fresh writes, the stale leader serves stale reads. The spec
   carries a client history and checks it with a Wing&Gong-style
   linearizability oracle. *)

open Sandtable

let () =
  let bugs = Systems.Bug.flags [ "xkv1" ] in
  let spec = Systems.Xraft_kv.spec ~bugs () in
  let scenario = Systems.Xraft_kv.default_scenario in
  Fmt.pr "model checking the KV store against the Linearizability oracle...@.";
  let result =
    Explorer.check spec scenario
      { Explorer.default with
        only_invariants = Some [ "Linearizability" ];
        time_budget = Some 120. }
  in
  (match result.outcome with
  | Explorer.Violation v ->
    Fmt.pr "@.violating schedule (%d events):@.%a@." v.depth
      (Trace.pp_labelled v.labels) v.events;
    Fmt.pr "final state:@.%s@." v.state_repr;
    Fmt.pr
      "The completed history has no linearization: the read returned a \
       value that a strictly-earlier completed write had already \
       overwritten (or missed a committed write entirely).@."
  | _ -> Fmt.pr "no violation found (%d states)@." result.distinct);
  Fmt.pr "@.the fixed build routes reads through the log; checking...@.";
  let fixed =
    Explorer.check (Systems.Xraft_kv.spec ()) scenario
      { Explorer.default with
        only_invariants = Some [ "Linearizability" ];
        time_budget = Some 60. }
  in
  match fixed.outcome with
  | Explorer.Violation _ -> Fmt.pr "unexpected violation in fixed build!@."
  | Explorer.Exhausted ->
    Fmt.pr "state space exhausted, linearizability holds (%d states).@."
      fixed.distinct
  | _ ->
    Fmt.pr "no violation within budget (%d states explored).@." fixed.distinct
