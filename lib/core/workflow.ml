type bundle = {
  bname : string;
  spec : Spec.t;
  boot : Scenario.t -> Conformance.sut;
  mask : Tla.Value.t -> Tla.Value.t;
  scenario : Scenario.t;
}

type outcome = {
  conformance : Conformance.report;
  check : Explorer.result option;
  confirmation : Replay.confirmation option;
}

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>%a" Conformance.pp_report o.conformance;
  Option.iter (fun r -> Fmt.pf ppf "@,%a" Explorer.pp_result r) o.check;
  Option.iter (fun c -> Fmt.pf ppf "@,%a" Replay.pp_confirmation c)
    o.confirmation;
  Fmt.pf ppf "@]"

let run ?(conf_rounds = 50) ?(conf_walk_depth = 25) ?(seed = 1)
    ?(check_opts = Explorer.default) bundle =
  let conformance =
    Conformance.run ~mask:bundle.mask ~walk_depth:conf_walk_depth bundle.spec
      ~boot:bundle.boot bundle.scenario ~rounds:conf_rounds ~seed
  in
  match conformance.discrepancy with
  | Some _ -> { conformance; check = None; confirmation = None }
  | None ->
    let check = Explorer.check bundle.spec bundle.scenario check_opts in
    let confirmation =
      match check.outcome with
      | Explorer.Violation v ->
        Some
          (Replay.confirm ~mask:bundle.mask bundle.spec ~boot:bundle.boot
             bundle.scenario v.events)
      | Explorer.Exhausted | Explorer.Budget_spent -> None
    in
    { conformance; check = Some check; confirmation }

type fix_validation = {
  fixed_conformance : Conformance.report;
  fixed_check : Explorer.result;
}

let validate_fix ?(conf_rounds = 50) ?(conf_walk_depth = 25) ?(seed = 1)
    ?(check_opts = Explorer.default) fixed =
  let fixed_conformance =
    Conformance.run ~mask:fixed.mask ~walk_depth:conf_walk_depth fixed.spec
      ~boot:fixed.boot fixed.scenario ~rounds:conf_rounds ~seed
  in
  let fixed_check = Explorer.check fixed.spec fixed.scenario check_opts in
  { fixed_conformance; fixed_check }

let fix_ok v =
  v.fixed_conformance.discrepancy = None
  &&
  match v.fixed_check.outcome with
  | Explorer.Exhausted | Explorer.Budget_spent -> true
  | Explorer.Violation _ -> false
