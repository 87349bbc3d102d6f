type sel = Any | Picked of int list | Leader | Followers
type groups = All_proper | Explicit of int list list | Isolate_leader
type trigger = { counter : string; count : int }
type heal = Auto | Never | After_trigger of trigger

type fault =
  | Crash of { limit : int; sel : sel; sample : int option }
  | Restart of { limit : int; sel : sel; sample : int option }
  | Partition of { limit : int; groups : groups; sample : int option }
  | Heal of heal
  | Drop of { limit : int; src : sel; dst : sel; sample : int option }
  | Dup of { limit : int; src : sel; dst : sel; sample : int option }
  | Timeouts of { limit : int; sel : sel }

type phase = { label : string; until : trigger option; faults : fault list }

type t = {
  name : string;
  seed : int;
  skew : (int * int) list;
  phases : phase list;
}

(* --- combinators -------------------------------------------------------- *)

let schedule ?(seed = 0) ?(skew = []) name phases = { name; seed; skew; phases }
let phase ?until label faults = { label; until; faults }
let after counter count = { counter; count }
let crash ?(sel = Any) ?sample limit = Crash { limit; sel; sample }
let restart ?(sel = Any) ?sample limit = Restart { limit; sel; sample }

let partition ?(groups = All_proper) ?sample limit =
  Partition { limit; groups; sample }

let heal h = Heal h
let drop ?(src = Any) ?(dst = Any) ?sample limit = Drop { limit; src; dst; sample }
let dup ?(src = Any) ?(dst = Any) ?sample limit = Dup { limit; src; dst; sample }
let timeouts ?(sel = Any) limit = Timeouts { limit; sel }

(* --- canonical printing ------------------------------------------------- *)

let buf_sel b prefix = function
  | Any -> ()
  | Picked ids ->
    Buffer.add_string b
      (Printf.sprintf " (%snodes%s)" prefix
         (String.concat "" (List.map (Printf.sprintf " %d") ids)))
  | Leader -> Buffer.add_string b (Printf.sprintf " (%sleader)" prefix)
  | Followers -> Buffer.add_string b (Printf.sprintf " (%sfollowers)" prefix)

(* from/to selectors render as a single operand: (from leader), (from (nodes 1)) *)
let sel_operand = function
  | Any -> "any"
  | Picked ids ->
    Printf.sprintf "(nodes%s)"
      (String.concat "" (List.map (Printf.sprintf " %d") ids))
  | Leader -> "leader"
  | Followers -> "followers"

let buf_sample b = function
  | None -> ()
  | Some k -> Buffer.add_string b (Printf.sprintf " (sample %d)" k)

let buf_fault b = function
  | Crash { limit; sel; sample } ->
    Buffer.add_string b (Printf.sprintf " (crash (limit %d)" limit);
    buf_sel b "" sel;
    buf_sample b sample;
    Buffer.add_char b ')'
  | Restart { limit; sel; sample } ->
    Buffer.add_string b (Printf.sprintf " (restart (limit %d)" limit);
    buf_sel b "" sel;
    buf_sample b sample;
    Buffer.add_char b ')'
  | Partition { limit; groups; sample } ->
    Buffer.add_string b (Printf.sprintf " (partition (limit %d)" limit);
    (match groups with
    | All_proper -> ()
    | Isolate_leader -> Buffer.add_string b " (isolate-leader)"
    | Explicit gs ->
      Buffer.add_string b " (groups";
      List.iter
        (fun g ->
          Buffer.add_string b
            (Printf.sprintf " (%s)"
               (String.concat " " (List.map string_of_int g))))
        gs;
      Buffer.add_char b ')');
    buf_sample b sample;
    Buffer.add_char b ')'
  | Heal Auto -> Buffer.add_string b " (heal auto)"
  | Heal Never -> Buffer.add_string b " (heal never)"
  | Heal (After_trigger { counter; count }) ->
    Buffer.add_string b (Printf.sprintf " (heal (after %s %d))" counter count)
  | Drop { limit; src; dst; sample } ->
    Buffer.add_string b (Printf.sprintf " (drop (limit %d)" limit);
    if src <> Any then
      Buffer.add_string b (Printf.sprintf " (from %s)" (sel_operand src));
    if dst <> Any then
      Buffer.add_string b (Printf.sprintf " (to %s)" (sel_operand dst));
    buf_sample b sample;
    Buffer.add_char b ')'
  | Dup { limit; src; dst; sample } ->
    Buffer.add_string b (Printf.sprintf " (dup (limit %d)" limit);
    if src <> Any then
      Buffer.add_string b (Printf.sprintf " (from %s)" (sel_operand src));
    if dst <> Any then
      Buffer.add_string b (Printf.sprintf " (to %s)" (sel_operand dst));
    buf_sample b sample;
    Buffer.add_char b ')'
  | Timeouts { limit; sel } ->
    Buffer.add_string b (Printf.sprintf " (timeouts (limit %d)" limit);
    buf_sel b "" sel;
    Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "(schedule %s" t.name);
  if t.seed <> 0 then Buffer.add_string b (Printf.sprintf "\n  (seed %d)" t.seed);
  List.iter
    (fun (node, ms) ->
      Buffer.add_string b (Printf.sprintf "\n  (skew (node %d) (ms %d))" node ms))
    t.skew;
  List.iter
    (fun ph ->
      Buffer.add_string b (Printf.sprintf "\n  (phase %s" ph.label);
      (match ph.until with
      | Some { counter; count } ->
        Buffer.add_string b (Printf.sprintf " (until %s %d)" counter count)
      | None -> ());
      List.iter (buf_fault b) ph.faults;
      Buffer.add_char b ')')
    t.phases;
  Buffer.add_string b ")\n";
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* --- s-expression reader ------------------------------------------------ *)

type sexp = A of string | L of sexp list

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let read_sexps src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let skip_ws () =
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        go ()
      | Some ';' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done;
        go ()
      | _ -> ()
    in
    go ()
  in
  let atom_char = function
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
    | _ -> true
  in
  let rec read_one () =
    skip_ws ();
    match peek () with
    | None -> failf "unexpected end of input"
    | Some ')' -> failf "unbalanced ')'"
    | Some '(' ->
      incr pos;
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | None -> failf "unclosed '('"
        | Some ')' ->
          incr pos;
          L (List.rev !items)
        | _ ->
          items := read_one () :: !items;
          loop ()
      in
      loop ()
    | Some _ ->
      let start = !pos in
      while !pos < n && atom_char src.[!pos] do
        incr pos
      done;
      A (String.sub src start (!pos - start))
  in
  let out = ref [] in
  let rec all () =
    skip_ws ();
    if !pos < n then begin
      out := read_one () :: !out;
      all ()
    end
  in
  all ();
  List.rev !out

(* --- clause interpretation ---------------------------------------------- *)

let head = function
  | L (A h :: rest) -> Some (h, rest)
  | _ -> None

let int_atom ctx = function
  | A s -> (
    match int_of_string_opt s with
    | Some v -> v
    | None -> failf "%s: expected an integer, got %S" ctx s)
  | L _ -> failf "%s: expected an integer atom" ctx

let trigger_of ctx = function
  | [ A counter; cnt ] -> { counter; count = int_atom ctx cnt }
  | _ -> failf "%s: expected (COUNTER N)" ctx

(* the (nodes ...)/(leader)/(followers) sub-clause style used by crash,
   restart and timeouts *)
let sel_clause ctx = function
  | L (A "nodes" :: ids) -> Picked (List.map (int_atom ctx) ids)
  | L [ A "leader" ] -> Leader
  | L [ A "followers" ] -> Followers
  | _ -> failf "%s: expected (nodes I ...), (leader) or (followers)" ctx

(* the single-operand style used inside (from X)/(to X) *)
let sel_operand_of ctx = function
  | A "any" -> Any
  | A "leader" -> Leader
  | A "followers" -> Followers
  | L (A "nodes" :: ids) -> Picked (List.map (int_atom ctx) ids)
  | _ -> failf "%s: expected any, leader, followers or (nodes I ...)" ctx

type clause_acc = {
  mutable limit : int option;
  mutable sel : sel;
  mutable groups : groups;
  mutable src : sel;
  mutable dst : sel;
  mutable sample : int option;
}

let fresh_acc () =
  { limit = None; sel = Any; groups = All_proper; src = Any; dst = Any;
    sample = None }

let node_rule ctx rest =
  let acc = fresh_acc () in
  List.iter
    (fun clause ->
      match head clause with
      | Some ("limit", [ v ]) -> acc.limit <- Some (int_atom ctx v)
      | Some ("sample", [ v ]) -> acc.sample <- Some (int_atom ctx v)
      | Some (("nodes" | "leader" | "followers"), _) ->
        acc.sel <- sel_clause ctx clause
      | _ -> failf "%s: unrecognized clause" ctx)
    rest;
  match acc.limit with
  | None -> failf "%s: missing (limit N)" ctx
  | Some limit -> (limit, acc.sel, acc.sample)

let link_rule ctx rest =
  let acc = fresh_acc () in
  List.iter
    (fun clause ->
      match head clause with
      | Some ("limit", [ v ]) -> acc.limit <- Some (int_atom ctx v)
      | Some ("sample", [ v ]) -> acc.sample <- Some (int_atom ctx v)
      | Some ("from", [ v ]) -> acc.src <- sel_operand_of ctx v
      | Some ("to", [ v ]) -> acc.dst <- sel_operand_of ctx v
      | _ -> failf "%s: unrecognized clause" ctx)
    rest;
  match acc.limit with
  | None -> failf "%s: missing (limit N)" ctx
  | Some limit -> (limit, acc.src, acc.dst, acc.sample)

let partition_rule ctx rest =
  let acc = fresh_acc () in
  List.iter
    (fun clause ->
      match head clause with
      | Some ("limit", [ v ]) -> acc.limit <- Some (int_atom ctx v)
      | Some ("sample", [ v ]) -> acc.sample <- Some (int_atom ctx v)
      | Some ("isolate-leader", []) -> acc.groups <- Isolate_leader
      | Some ("groups", gs) ->
        acc.groups <-
          Explicit
            (List.map
               (function
                 | L ids -> List.map (int_atom ctx) ids
                 | A _ -> failf "%s: groups expects (I J ...) lists" ctx)
               gs)
      | _ -> failf "%s: unrecognized clause" ctx)
    rest;
  match acc.limit with
  | None -> failf "%s: missing (limit N)" ctx
  | Some limit -> (limit, acc.groups, acc.sample)

let heal_rule ctx = function
  | [ A "auto" ] -> Auto
  | [ A "never" ] -> Never
  | [ L (A "after" :: tg) ] -> After_trigger (trigger_of ctx tg)
  | _ -> failf "%s: expected auto, never or (after COUNTER N)" ctx

let fault_of_clause label clause =
  let ctx kind = Printf.sprintf "phase %s: (%s ...)" label kind in
  match head clause with
  | Some ("crash", rest) ->
    let limit, sel, sample = node_rule (ctx "crash") rest in
    Some (Crash { limit; sel; sample })
  | Some ("restart", rest) ->
    let limit, sel, sample = node_rule (ctx "restart") rest in
    Some (Restart { limit; sel; sample })
  | Some ("partition", rest) ->
    let limit, groups, sample = partition_rule (ctx "partition") rest in
    Some (Partition { limit; groups; sample })
  | Some ("heal", rest) -> Some (Heal (heal_rule (ctx "heal") rest))
  | Some ("drop", rest) ->
    let limit, src, dst, sample = link_rule (ctx "drop") rest in
    Some (Drop { limit; src; dst; sample })
  | Some ("dup", rest) ->
    let limit, src, dst, sample = link_rule (ctx "dup") rest in
    Some (Dup { limit; src; dst; sample })
  | Some ("timeouts", rest) ->
    let limit, sel, _sample = node_rule (ctx "timeouts") rest in
    Some (Timeouts { limit; sel })
  | Some ("until", _) -> None
  | Some (kind, _) -> failf "phase %s: unknown fault kind %S" label kind
  | None -> failf "phase %s: expected a (KIND ...) clause" label

let phase_of = function
  | A label :: clauses ->
    let until = ref None in
    List.iter
      (fun clause ->
        match head clause with
        | Some ("until", tg) ->
          if !until <> None then failf "phase %s: duplicate (until ...)" label;
          until := Some (trigger_of (Printf.sprintf "phase %s: until" label) tg)
        | _ -> ())
      clauses;
    let faults = List.filter_map (fault_of_clause label) clauses in
    { label; until = !until; faults }
  | _ -> failf "(phase ...): expected a label"

let interpret = function
  | L (A "schedule" :: A name :: rest) ->
    let seed = ref 0 and skew = ref [] and phases = ref [] in
    List.iter
      (fun clause ->
        match head clause with
        | Some ("seed", [ v ]) -> seed := int_atom "seed" v
        | Some ("skew", [ L [ A "node"; nv ]; L [ A "ms"; mv ] ]) ->
          skew := (int_atom "skew node" nv, int_atom "skew ms" mv) :: !skew
        | Some ("skew", _) -> failf "skew: expected (skew (node N) (ms M))"
        | Some ("phase", body) -> phases := phase_of body :: !phases
        | Some (kind, _) -> failf "schedule: unknown clause %S" kind
        | None -> failf "schedule: expected a (CLAUSE ...) form")
      rest;
    if !phases = [] then failf "schedule %s: at least one phase required" name;
    { name; seed = !seed; skew = List.rev !skew; phases = List.rev !phases }
  | L (A "schedule" :: _) -> failf "(schedule ...): expected a name"
  | _ -> failf "expected a single (schedule NAME ...) form"

let parse src =
  match read_sexps src with
  | exception Bad msg -> Error msg
  | [ form ] -> ( try Ok (interpret form) with Bad msg -> Error msg)
  | [] -> Error "empty input: expected (schedule NAME ...)"
  | _ :: _ :: _ -> Error "expected exactly one (schedule ...) form"
