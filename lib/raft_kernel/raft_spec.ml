include Sandtable.Cluster_spec.Record (Net)

let up_to_date log ~last_log_term ~last_log_index =
  last_log_term > Log.last_term log
  || (last_log_term = Log.last_term log && last_log_index >= Log.last_index log)

let quorum_match log match_index ~self =
  let n = Array.length match_index in
  let replicated =
    List.init n (fun j ->
        if j = self then Log.last_index log else match_index.(j))
  in
  List.nth
    (List.sort (fun a b -> Int.compare b a) replicated)
    (Types.quorum n - 1)

let invariants view_of checks flags =
  List.map
    (fun (name, check) -> name, fun _ st -> check (Array.map view_of st.nodes))
    checks
  @ List.map
      (fun flag -> flag, fun _ st -> Invariants.no_flag flag st.flags)
      flags
