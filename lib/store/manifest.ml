type status = Running | Done | Failed

type shrink = {
  ms_original : int;
  ms_minimized : int;
  ms_trace : string;
}

type t = {
  m_system : string;
  m_scenario : string;
  m_identity : string;
  m_created : string;
  m_engine : string;
  m_workers : int;
  m_cores : int;
  m_flags : (string * string) list;
  m_status : status;
  m_outcome : string option;
  m_distinct : int;
  m_generated : int;
  m_max_depth : int;
  m_duration : float;
  m_checkpoints : int;
  m_checkpoint : string option;
  m_trace : string option;
  m_shrink : shrink option;
  m_faults : string option;
}

let version = 7
let file = "manifest.json"

let status_string = function
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

let status_of_string = function
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | _ -> None

let now_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let make ~system ~scenario ~identity ~engine ~workers ~cores ~flags =
  { m_system = system;
    m_scenario = scenario;
    m_identity = identity;
    m_created = now_utc ();
    m_engine = engine;
    m_workers = workers;
    m_cores = cores;
    m_flags = flags;
    m_status = Running;
    m_outcome = None;
    m_distinct = 0;
    m_generated = 0;
    m_max_depth = 0;
    m_duration = 0.;
    m_checkpoints = 0;
    m_checkpoint = None;
    m_trace = None;
    m_shrink = None;
    m_faults = None }

let to_json t =
  let open Sjson in
  let int n = Num (float_of_int n) in
  let opt f = function Some v -> f v | None -> Null in
  let str s = Str s in
  Obj
    [ ("version", int version);
      ("system", Str t.m_system);
      ("scenario", Str t.m_scenario);
      ("identity", Str t.m_identity);
      ("created", Str t.m_created);
      ("engine", Str t.m_engine);
      ("workers", int t.m_workers);
      ("cores", int t.m_cores);
      ("flags", Obj (List.map (fun (k, v) -> (k, Str v)) t.m_flags));
      ("status", Str (status_string t.m_status));
      ("outcome", opt str t.m_outcome);
      ("distinct", int t.m_distinct);
      ("generated", int t.m_generated);
      ("max_depth", int t.m_max_depth);
      ("duration_s", Num t.m_duration);
      ("checkpoints", int t.m_checkpoints);
      ("checkpoint", opt str t.m_checkpoint);
      ("trace", opt str t.m_trace);
      ("faults", opt str t.m_faults);
      ( "shrink",
        opt
          (fun s ->
            Obj
              [ ("original_events", int s.ms_original);
                ("minimized_events", int s.ms_minimized);
                ("trace", Str s.ms_trace) ])
          t.m_shrink ) ]

(* A reader is what the field must hold, for the error message, and a
   converter that answers [None] when it does not. *)
let str = ("a string", Sjson.to_str)
let int = ("an integer", Sjson.to_int)

let nullable (what, conv) =
  ( what ^ " or null",
    function Sjson.Null -> Some None | v -> Option.map Option.some (conv v) )

let field j name (what, conv) =
  match Sjson.member name j with
  | None -> Error (Printf.sprintf "missing %S" name)
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%S is not %s" name what))

let cores =
  ( "an integer >= 1",
    fun v ->
      Option.bind (Sjson.to_int v) (fun c -> if c >= 1 then Some c else None)
  )

let flags =
  ( "an object of strings",
    function
    | Sjson.Obj kvs ->
      List.fold_right
        (fun (k, v) acc ->
          Option.bind acc (fun l ->
              Option.map (fun s -> (k, s) :: l) (Sjson.to_str v)))
        kvs (Some [])
    | _ -> None )

let status =
  ( "running, done or failed",
    fun v -> Option.bind (Sjson.to_str v) status_of_string )

let shrink =
  ( "a shrink summary",
    fun v ->
      match
        ( Option.bind (Sjson.member "original_events" v) Sjson.to_int,
          Option.bind (Sjson.member "minimized_events" v) Sjson.to_int,
          Option.bind (Sjson.member "trace" v) Sjson.to_str )
      with
      | Some o, Some m, Some tr ->
        Some { ms_original = o; ms_minimized = m; ms_trace = tr }
      | _ -> None )

let of_json j =
  let ( let* ) = Result.bind in
  let field name reader = field j name reader in
  let* v = field "version" int in
  if v <> version then
    Error
      (Printf.sprintf
         "manifest version %d, expected %d (re-run check to record the run \
          in the current format)"
         v version)
  else
    let* m_system = field "system" str in
    let* m_scenario = field "scenario" str in
    let* m_identity = field "identity" str in
    let* m_created = field "created" str in
    let* m_engine = field "engine" str in
    let* m_workers = field "workers" int in
    let* m_cores = field "cores" cores in
    let* m_flags = field "flags" flags in
    let* m_status = field "status" status in
    let* m_outcome = field "outcome" (nullable str) in
    let* m_distinct = field "distinct" int in
    let* m_generated = field "generated" int in
    let* m_max_depth = field "max_depth" int in
    let* m_duration = field "duration_s" ("a number", Sjson.to_num) in
    let* m_checkpoints = field "checkpoints" int in
    let* m_checkpoint = field "checkpoint" (nullable str) in
    let* m_trace = field "trace" (nullable str) in
    let* m_faults = field "faults" (nullable str) in
    let* m_shrink = field "shrink" (nullable shrink) in
    Ok
      { m_system; m_scenario; m_identity; m_created; m_engine; m_workers;
        m_cores; m_flags; m_status; m_outcome; m_distinct; m_generated;
        m_max_depth; m_duration; m_checkpoints; m_checkpoint; m_trace;
        m_shrink; m_faults }

let save ~dir t =
  Sandtable.Binio.mkdir_p dir;
  let path = Filename.concat dir file in
  Sandtable.Binio.atomic_write path (fun oc ->
      output_string oc (Sjson.to_string (to_json t)))

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~dir =
  let path = Filename.concat dir file in
  match read_whole path with
  | exception Sys_error m -> Error m
  | raw ->
    Result.bind (Sjson.of_string raw) of_json
    |> Result.map_error (Printf.sprintf "%s: %s" path)

let list_runs root =
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.filter_map (fun name ->
           let dir = Filename.concat root name in
           if
             Sys.is_directory dir
             && Sys.file_exists (Filename.concat dir file)
           then Some (name, load ~dir)
           else None)

let pp ppf t =
  Fmt.pf ppf "%-8s %s/%s %s j%d depth %d, %d distinct, %.2fs%a%a"
    (status_string t.m_status) t.m_system t.m_scenario t.m_engine t.m_workers
    t.m_max_depth t.m_distinct t.m_duration
    (fun ppf -> function
      | Some o -> Fmt.pf ppf " — %s" o
      | None -> ())
    t.m_outcome
    (fun ppf -> function
      | Some s -> Fmt.pf ppf " (shrunk %d→%d)" s.ms_original s.ms_minimized
      | None -> ())
    t.m_shrink
