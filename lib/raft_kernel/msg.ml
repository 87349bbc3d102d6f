type t =
  | Request_vote of {
      term : Types.term;
      last_log_index : Types.index;
      last_log_term : Types.term;
      prevote : bool;
    }
  | Vote of { term : Types.term; granted : bool; prevote : bool }
  | Append_entries of {
      term : Types.term;
      prev_index : Types.index;
      prev_term : Types.term;
      entries : Types.entry list;
      commit : Types.index;
    }
  | Append_reply of {
      term : Types.term;
      success : bool;
      next_hint : Types.index;
    }
  | Snapshot of {
      term : Types.term;
      last_index : Types.index;
      last_term : Types.term;
    }
  | Snapshot_reply of { term : Types.term; success : bool; next_hint : Types.index }

(* Successor labels are built once per [Deliver] successor, so they go
   through a per-call buffer rather than Format. *)
let describe m =
  let b = Buffer.create 32 in
  let s = Buffer.add_string b in
  let i n = Buffer.add_string b (string_of_int n) in
  let flag x = Buffer.add_char b (if x then 'T' else 'F') in
  (match m with
  | Request_vote { term; last_log_index; last_log_term; prevote } ->
    s (if prevote then "PreRV(t" else "RV(t");
    i term; s ",l"; i last_log_index; s ":"; i last_log_term; s ")"
  | Vote { term; granted; prevote } ->
    s (if prevote then "PreVote(t" else "Vote(t");
    i term; s ","; flag granted; s ")"
  | Append_entries { term; prev_index; prev_term; entries; commit } ->
    s "AE(t"; i term; s ",p"; i prev_index; s ":"; i prev_term; s ",+";
    i (List.length entries); s ",c"; i commit; s ")"
  | Append_reply { term; success; next_hint } ->
    s "AER(t"; i term; s ","; flag success; s ",n"; i next_hint; s ")"
  | Snapshot { term; last_index; last_term } ->
    s "Snap(t"; i term; s ",l"; i last_index; s ":"; i last_term; s ")"
  | Snapshot_reply { term; success; next_hint } ->
    s "SnapR(t"; i term; s ","; flag success; s ",n"; i next_hint; s ")");
  Buffer.contents b

(* Fields in canonical (name) order: [Tla.Value.record] keeps them as is. *)
let observe m =
  let open Tla.Value in
  match m with
  | Request_vote { term; last_log_index; last_log_term; prevote } ->
    record
      [ "last_log_index", int last_log_index;
        "last_log_term", int last_log_term;
        "term", int term;
        "type", str (if prevote then "prevote_request" else "vote_request") ]
  | Vote { term; granted; prevote } ->
    record
      [ "granted", bool granted;
        "term", int term;
        "type", str (if prevote then "prevote_reply" else "vote_reply") ]
  | Append_entries { term; prev_index; prev_term; entries; commit } ->
    record
      [ "commit", int commit;
        "entries", seq (List.map Types.observe_entry entries);
        "prev_index", int prev_index;
        "prev_term", int prev_term;
        "term", int term;
        "type", str "append_entries" ]
  | Append_reply { term; success; next_hint } ->
    record
      [ "next_hint", int next_hint;
        "success", bool success;
        "term", int term;
        "type", str "append_reply" ]
  | Snapshot { term; last_index; last_term } ->
    record
      [ "last_index", int last_index;
        "last_term", int last_term;
        "term", int term;
        "type", str "snapshot" ]
  | Snapshot_reply { term; success; next_hint } ->
    record
      [ "next_hint", int next_hint;
        "success", bool success;
        "term", int term;
        "type", str "snapshot_reply" ]

let term = function
  | Request_vote { term; _ }
  | Vote { term; _ }
  | Append_entries { term; _ }
  | Append_reply { term; _ }
  | Snapshot { term; _ }
  | Snapshot_reply { term; _ } ->
    term
