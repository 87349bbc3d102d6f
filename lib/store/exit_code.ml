let ok = 0
let found = 1
let usage = 2

let of_outcome = function
  | Sandtable.Explorer.Violation _ -> found
  | Sandtable.Explorer.Exhausted | Sandtable.Explorer.Budget_spent -> ok

let of_simulation (a : Sandtable.Simulate.aggregate) =
  if a.violations > 0 then found else ok

let of_conformance (r : Sandtable.Conformance.report) =
  match r.discrepancy with Some _ -> found | None -> ok
