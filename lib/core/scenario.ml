type budget = (string * int) list

(* The first binding of [key] wins. *)
let rec budget_get b key ~default =
  match b with
  | [] -> default
  | (k, v) :: rest -> if String.equal k key then v else budget_get rest key ~default

let memo f =
  let last = Atomic.make None in
  fun b ->
    match Atomic.get last with
    | Some (b', v) when b' == b -> v
    | Some _ | None ->
      let v = f b in
      Atomic.set last (Some (b, v));
      v

let valid_keys =
  [ "timeouts"; "requests"; "crashes"; "restarts"; "partitions"; "buffer";
    "drops"; "dups"; "epochs" ]

let budget_errors b =
  List.filter_map
    (fun (k, v) ->
      if not (List.mem k valid_keys) then
        Some
          (Printf.sprintf "unknown budget key %S (valid: %s)" k
             (String.concat ", " valid_keys))
      else if v < 0 then
        Some (Printf.sprintf "budget key %S is negative (%d)" k v)
      else None)
    b

let double b = List.map (fun (k, v) -> (k, v * 2)) b

let pp_budget ppf b =
  let pp_bound ppf (k, v) = Fmt.pf ppf "%s=%d" k v in
  Fmt.(list ~sep:(any " ") pp_bound) ppf b

type t = {
  name : string;
  nodes : int;
  workload : int list;
  budget : budget;
  faults : Fault_plan.t option;
}

let v ?(name = "scenario") ?faults ~nodes ~workload budget =
  if nodes <= 0 then invalid_arg "Scenario.v: nodes must be positive";
  { name; nodes; workload; budget; faults }

let validate t =
  match budget_errors t.budget with
  | [] -> Ok ()
  | errs ->
    Error
      (Printf.sprintf "scenario %s: %s" t.name (String.concat "; " errs))

let pp ppf t =
  Fmt.pf ppf "%s: %d nodes, workload {%a}, %a%a" t.name t.nodes
    Fmt.(list ~sep:(any ",") int)
    t.workload pp_budget t.budget
    (fun ppf -> function
      | None -> ()
      | Some plan -> Fmt.pf ppf ", faults %a" Fault_plan.pp plan)
    t.faults
