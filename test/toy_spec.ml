(* A tiny synthetic specification used to test the explorer, simulator and
   ranker independently of the real systems: each node owns a counter that
   a "tick" timeout increments; the state space is a simplex with known
   cardinalities. *)

open Sandtable

type state = { ticks : int array; counters : Counters.t }

module Make (P : sig
  val limit : int option  (* a node reaching this value violates the invariant *)
end) : Spec.S with type state = state = struct
  type nonrec state = state

  let name = "toy"

  let init (scenario : Scenario.t) =
    [ { ticks = Array.make scenario.nodes 0; counters = Counters.zero } ]

  let successors (scenario : Scenario.t) st =
    let budget = Scenario.budget_get scenario.budget "timeouts" ~default:3 in
    if st.counters.timeouts >= budget then []
    else
      List.init (Array.length st.ticks) (fun node ->
          let event = Trace.Timeout { node; kind = "tick" } in
          ( event,
            fun () ->
              Coverage.hit (Fmt.str "toy/tick%d" node);
              { ticks = Arr.update st.ticks node (fun t -> t + 1);
                counters = Counters.bump st.counters event } ))

  let next scenario st = Spec.force (successors scenario st)

  let constraint_ok (scenario : Scenario.t) st =
    Counters.within st.counters scenario.budget

  let invariants =
    match P.limit with
    | None -> []
    | Some limit ->
      [ ( "BelowLimit",
          fun (_ : Scenario.t) st -> Array.for_all (fun t -> t < limit) st.ticks
        ) ]

  let observe st =
    Tla.Value.record
      [ "ticks", Tla.Value.seq (Array.to_list (Array.map Tla.Value.int st.ticks))
      ]

  let permutable = true
  let permute p st = { st with ticks = Arr.permute p st.ticks }
  let node_key st i = st.ticks.(i)
  let describe _ _ = ""

  let pp_state ppf st =
    Fmt.pf ppf "%a" Fmt.(Dump.array int) st.ticks
end

let spec ?limit () : Spec.t =
  (module Make (struct
    let limit = limit
  end))

let scenario ~nodes ~timeouts =
  Scenario.v ~name:"toy" ~nodes ~workload:[ 1 ] [ "timeouts", timeouts ]
