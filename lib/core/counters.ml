type t = {
  timeouts : int;
  requests : int;
  crashes : int;
  restarts : int;
  partitions : int;
  drops : int;
  dups : int;
}

let zero =
  { timeouts = 0; requests = 0; crashes = 0; restarts = 0; partitions = 0;
    drops = 0; dups = 0 }

let bump t (e : Trace.event) =
  match e with
  | Timeout _ -> { t with timeouts = t.timeouts + 1 }
  | Client _ -> { t with requests = t.requests + 1 }
  | Crash _ -> { t with crashes = t.crashes + 1 }
  | Restart _ -> { t with restarts = t.restarts + 1 }
  | Partition _ -> { t with partitions = t.partitions + 1 }
  | Drop _ -> { t with drops = t.drops + 1 }
  | Duplicate _ -> { t with dups = t.dups + 1 }
  | Deliver _ | Heal -> t

(* The first binding of [key] wins; an absent key is unbounded. *)
let rec bound key = function
  | [] -> max_int
  | (k, v) :: rest -> if String.equal k key then v else bound key rest

let bounds budget =
  { timeouts = bound "timeouts" budget;
    requests = bound "requests" budget;
    crashes = bound "crashes" budget;
    restarts = bound "restarts" budget;
    partitions = bound "partitions" budget;
    drops = bound "drops" budget;
    dups = bound "dups" budget }

let within_bounds t b =
  t.timeouts <= b.timeouts
  && t.requests <= b.requests
  && t.crashes <= b.crashes
  && t.restarts <= b.restarts
  && t.partitions <= b.partitions
  && t.drops <= b.drops
  && t.dups <= b.dups

let within t budget = within_bounds t (bounds budget)

let encode sink t =
  Binio.uint sink t.timeouts;
  Binio.uint sink t.requests;
  Binio.uint sink t.crashes;
  Binio.uint sink t.restarts;
  Binio.uint sink t.partitions;
  Binio.uint sink t.drops;
  Binio.uint sink t.dups

let decode src =
  let timeouts = Binio.read_uint src in
  let requests = Binio.read_uint src in
  let crashes = Binio.read_uint src in
  let restarts = Binio.read_uint src in
  let partitions = Binio.read_uint src in
  let drops = Binio.read_uint src in
  let dups = Binio.read_uint src in
  { timeouts; requests; crashes; restarts; partitions; drops; dups }

let observe t =
  Tla.Value.record
    [ "n_crash", Tla.Value.int t.crashes;
      "n_drop", Tla.Value.int t.drops;
      "n_dup", Tla.Value.int t.dups;
      "n_partition", Tla.Value.int t.partitions;
      "n_request", Tla.Value.int t.requests;
      "n_restart", Tla.Value.int t.restarts;
      "n_timeout", Tla.Value.int t.timeouts ]

let pp ppf t = Tla.Value.pp ppf (observe t)
