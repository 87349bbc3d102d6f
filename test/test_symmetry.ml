open Sandtable

let case name f = Alcotest.test_case name `Quick f

let test_permutation_count () =
  Alcotest.(check int) "3! = 6" 6 (List.length (Symmetry.permutations 3));
  Alcotest.(check int) "1! = 1" 1 (List.length (Symmetry.permutations 1));
  let all = Symmetry.permutations 4 in
  Alcotest.(check int) "4! = 24" 24 (List.length all);
  Alcotest.(check int) "all distinct" 24
    (List.length (List.sort_uniq compare all))

let test_identity_first () =
  match Symmetry.permutations 3 with
  | first :: _ -> Alcotest.(check bool) "identity" true (first = [| 0; 1; 2 |])
  | [] -> Alcotest.fail "empty"

let test_canonical_fp_invariance () =
  let permute p (a : int array) = Sandtable.Arr.permute p a in
  let fp s = Symmetry.canonical_fp ~permute ~nodes:3 s in
  Alcotest.(check bool) "permuted states share canonical fp" true
    (Fingerprint.equal (fp [| 1; 2; 3 |]) (fp [| 3; 1; 2 |]));
  Alcotest.(check bool) "different multisets differ" false
    (Fingerprint.equal (fp [| 1; 2; 3 |]) (fp [| 1; 2; 4 |]))

(* A state of (key, payload) slots: [fst] is an equivariant key with many
   ties, and the payload keeps tied nodes distinguishable, so tie blocks
   really have several candidates. *)
let slot_states =
  let rng = Random.State.make [| 12 |] in
  List.init 200 (fun _ ->
      Array.init 4 (fun _ -> (Random.State.int rng 2, Random.State.int rng 3)))

let test_keyed_orbit_invariant () =
  let permute p (a : (int * int) array) = Sandtable.Arr.permute p a in
  let keyed s =
    Symmetry.canonical_fp ~key:(fun a i -> fst a.(i)) ~permute ~nodes:4 s
  in
  let all s = Symmetry.canonical_fp ~permute ~nodes:4 s in
  let brute s =
    List.fold_left
      (fun best p ->
        let fp = Fingerprint.of_state (permute p s) in
        if Fingerprint.compare fp best < 0 then fp else best)
      (Fingerprint.of_state s) (Symmetry.permutations 4)
  in
  let orbit s = List.map (fun p -> permute p s) (Symmetry.permutations 4) in
  let sorted s = List.sort compare (Array.to_list s) in
  List.iter
    (fun s ->
      Alcotest.(check bool) "no key = all-permutations minimum" true
        (Fingerprint.equal (all s) (brute s));
      List.iter
        (fun s' ->
          Alcotest.(check bool) "keyed canonical fp is orbit-invariant" true
            (Fingerprint.equal (keyed s) (keyed s')))
        (orbit s);
      List.iter
        (fun t ->
          Alcotest.(check bool) "same fp iff same orbit" (sorted s = sorted t)
            (Fingerprint.equal (keyed s) (keyed t)))
        slot_states)
    slot_states

(* Exhaustive runs of every permutable system, keyed by its [node_key] and
   by a constant key (every permutation a candidate): the two reductions
   are equally strong, so their totals agree exactly. *)
let constant_key (spec : Spec.t) : Spec.t =
  let module S = (val spec) in
  (module struct
    include S

    let node_key _ _ = 0
  end)

let test_keyed_matches_constant_key () =
  let tiny =
    [ ("timeouts", 2); ("requests", 1); ("crashes", 0); ("restarts", 0);
      ("partitions", 0); ("buffer", 2); ("drops", 0); ("dups", 0);
      ("epochs", 1) ]
  in
  List.iter
    (fun (sys : Systems.Registry.t) ->
      let spec = sys.spec Systems.Bug.Flags.empty in
      let (module S : Spec.S) = spec in
      if S.permutable then begin
        let scenario =
          Scenario.v ~name:(sys.name ^ "-tiny3") ~nodes:3 ~workload:[ 1 ] tiny
        in
        let totals (r : Explorer.result) =
          (match r.outcome with
          | Explorer.Exhausted -> ()
          | _ -> Alcotest.failf "%s: run should exhaust" sys.name);
          (r.distinct, r.generated)
        in
        let all =
          totals (Explorer.check (constant_key spec) scenario Explorer.default)
        in
        Alcotest.(check (pair int int))
          (sys.name ^ " keyed -j1 = all permutations") all
          (totals (Explorer.check spec scenario Explorer.default));
        Alcotest.(check (pair int int))
          (sys.name ^ " keyed ws -j2 = all permutations") all
          (totals
             (Par.Ws_explorer.check ~workers:2 spec scenario Explorer.default).base)
      end)
    Systems.Registry.all

let test_fingerprint_basics () =
  let a = Fingerprint.of_state (1, [ "x" ]) in
  let b = Fingerprint.of_state (1, [ "x" ]) in
  let c = Fingerprint.of_state (2, [ "x" ]) in
  Alcotest.(check bool) "equal states equal fp" true (Fingerprint.equal a b);
  Alcotest.(check bool) "different states differ" false (Fingerprint.equal a c);
  Alcotest.(check int) "hex width" 32 (String.length (Fingerprint.to_hex a))

let test_coverage_collect () =
  let (), branches =
    Coverage.collect (fun () ->
        Coverage.hit "a";
        Coverage.hit "b";
        Coverage.hit "a")
  in
  Alcotest.(check int) "two branches" 2 (Coverage.cardinal branches);
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Coverage.branches branches);
  (* outside a collector, hits are dropped *)
  Coverage.hit "c";
  let (), nested =
    Coverage.collect (fun () ->
        let (), inner = Coverage.collect (fun () -> Coverage.hit "inner") in
        Alcotest.(check int) "inner" 1 (Coverage.cardinal inner);
        Coverage.hit "outer")
  in
  Alcotest.(check (list string)) "outer collector restored" [ "outer" ]
    (Coverage.branches nested)

let test_counters () =
  let c = Counters.zero in
  let c = Counters.bump c (Trace.Timeout { node = 0; kind = "x" }) in
  let c = Counters.bump c (Trace.Crash { node = 0 }) in
  let c = Counters.bump c (Trace.Deliver { src = 0; dst = 1; index = 0 }) in
  Alcotest.(check int) "timeouts" 1 c.timeouts;
  Alcotest.(check int) "crashes" 1 c.crashes;
  Alcotest.(check bool) "within" true (Counters.within c [ "timeouts", 1 ]);
  Alcotest.(check bool) "over" false (Counters.within c [ "crashes", 0 ]);
  Alcotest.(check bool) "unnamed unbounded" true (Counters.within c [])

let test_scenario_double () =
  let b = [ "timeouts", 3; "buffer", 4 ] in
  Alcotest.(check int) "doubled" 6
    (Scenario.budget_get (Scenario.double b) "timeouts" ~default:0);
  Alcotest.(check int) "default" 9 (Scenario.budget_get b "missing" ~default:9)

let suite =
  ( "symmetry+support",
    [ case "permutation count" test_permutation_count;
      case "identity first" test_identity_first;
      case "canonical fingerprint invariance" test_canonical_fp_invariance;
      case "keyed canonical fp exact on orbits" test_keyed_orbit_invariant;
      case "keyed = all-permutation totals, every system"
        test_keyed_matches_constant_key;
      case "fingerprint basics" test_fingerprint_basics;
      case "coverage collection" test_coverage_collect;
      case "counters" test_counters;
      case "scenario budgets" test_scenario_double ] )
