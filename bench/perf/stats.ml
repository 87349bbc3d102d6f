(* Order statistics over repetitions. [quartiles] follows Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method) so
   the spreads printed here match the ones an outside harness computes. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float (n - delta)) +. (a.(j) *. float delta)) /. float n
    in
    (q 1, q 3)

let summarize xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

(* Interquartile range as a share of the median. *)
let spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median
