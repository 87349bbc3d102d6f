(** Universal values for state observation and conformance diffing.

    Specifications and implementations both export their observable state as
    a {!t}; the conformance checker compares the two structurally and reports
    per-path differences, mirroring how SandTable compares TLA+ trace states
    against implementation states (paper §3.2, §A.4). *)

type t =
  | Bool of bool
  | Int of int
  | Str of string
  | Set of t list  (** canonically sorted, duplicates removed *)
  | Seq of t list  (** order-sensitive sequence *)
  | Record of (string * t) list  (** canonically sorted by field name *)
  | Map of (t * t) list  (** function as graph, sorted by key *)

val bool : bool -> t
val int : int -> t
val str : string -> t

val set : t list -> t
(** [set vs] sorts [vs] and removes duplicates. Input already strictly
    increasing under {!compare} is kept as is after one linear check, with
    no sort; any other order is still correct, at the cost of one sort. *)

val seq : t list -> t

val record : (string * t) list -> t
(** [record fields] sorts fields by name ([String.compare]). Duplicate names
    raise [Invalid_argument "Value.record: duplicate field NAME"]. Like
    {!set}, fields listed in canonical order take a linear check and no
    sort; any order is correct. *)

val map : (t * t) list -> t
(** [map bindings] sorts bindings by key ({!compare}). Duplicate keys raise
    [Invalid_argument "Value.map: duplicate key KEY"], [KEY] rendered by
    {!to_string}. Bindings listed in canonical order take a linear check
    and no sort; any order is correct. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val field : t -> string -> t option
(** [field v name] projects field [name] out of a record. *)

val find : t -> t -> t option
(** [find m k] looks up key [k] in a [Map]. *)

type diff = { path : string; expected : t option; actual : t option }
(** One structural discrepancy: [path] is a ["a.b[2].c"]-style locator;
    [None] means the side lacks the element. *)

val pp_diff : Format.formatter -> diff -> unit

val diff : expected:t -> actual:t -> diff list
(** [diff ~expected ~actual] returns all leaf-level discrepancies, empty iff
    the values are equal. Equal values are recognised by {!equal} first and
    cost no allocation; paths are only rendered for values that differ. *)
