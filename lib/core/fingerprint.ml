type t = { hi : int; lo : int }

(* Kernel 0 was the original 16-byte MD5 digest of the marshalled state.
   Kernel 1 is the zero-copy 126-bit mixing kernel below. Checkpoints are
   stamped with the kernel that produced their fingerprints, and one from
   another kernel is refused by name (Store.Checkpoint.load). *)
let kernel_id = 1

(* The kernel shifts by up to 56 and rotates in a 63-bit word; on a 32-bit
   platform those shifts are undefined. Fail loudly instead of silently
   producing colliding fingerprints. *)
let () =
  if Sys.int_size <> 63 then
    failwith "Fingerprint: the hash kernel requires 63-bit native ints"

(* ---- domain-local marshal arenas --------------------------------------

   [Marshal.to_string] allocates a fresh heap string per call — on the BFS
   hot path that is one short-lived allocation (plus a copy) per generated
   state, multiplied by n! under symmetry reduction. Instead each domain
   keeps growable [Bytes] arenas and marshals into them in place with
   [Marshal.to_buffer]; the hash kernel then reads the arena directly, so
   no intermediate string ever exists.

   There are two per domain. [of_state] writes the own arena, whose prefix
   then holds the state's bytes until the next [of_state] on the domain:
   the frontier copies a fresh state from there instead of marshalling it
   again. Symmetry's non-identity candidates ([of_candidate]) write the
   other one, so canonicalising a state leaves its own bytes in place. *)

type arena = { mutable buf : Bytes.t; mutable marshalled : int }

let new_arena () = { buf = Bytes.create (1 lsl 16); marshalled = 0 }
let arena_key = Domain.DLS.new_key new_arena
let candidate_key = Domain.DLS.new_key new_arena

(* [No_sharing] makes the fingerprint a function of the state's *structure*
   alone. With sharing enabled the encoding depends on which subvalues
   happen to be physically shared — an artefact of the construction path,
   not of the state — so structurally equal states could fingerprint
   differently (e.g. after a frontier entry is spilled to disk and read
   back, breaking aliasing with global constants like an empty log). *)
let rec marshal_into a state =
  match
    Marshal.to_buffer a.buf 0 (Bytes.length a.buf) state [ Marshal.No_sharing ]
  with
  | n -> n
  | exception Failure _ ->
    (* [to_buffer] signals an undersized buffer with [Failure]; closures and
       other unmarshallable values raise [Invalid_argument], which the
       caller turns into a diagnostic naming the spec *)
    let len = Bytes.length a.buf in
    if len >= Sys.max_string_length then
      invalid_arg "state is too large to marshal";
    a.buf <- Bytes.create (min Sys.max_string_length (2 * len));
    marshal_into a state

(* ---- hash kernel -------------------------------------------------------

   An xxhash64-flavoured two-lane multiply–rotate kernel over native 63-bit
   ints: allocation-free, no Int64 boxing. Input is consumed 7 bytes at a
   time so each word (<= 2^56) fits a 63-bit int without truncation; all
   arithmetic wraps mod 2^63. The two lanes use distinct primes and are
   cross-mixed in the finaliser, giving a 126-bit result — at 10^9 states
   the collision probability is ~10^-11 per pair class, far below the paper
   run sizes (MD5's 128 bits bought ~4 more decimal digits nobody needs at
   this scale, at ~10x the cost per byte). *)

let p1 = 0x3779b97f4a7c15e7
let p2 = 0x2545f4914f6cdd1d
let p3 = 0x1c69b3f74ac4ae35
let p4 = 0x27d4eb2f165667c5
let p5 = 0x165667b19e3779f1

let[@inline] rotl x r = (x lsl r) lor (x lsr (63 - r))

(* [word7] reads one 7-byte little-endian word a byte at a time; the main
   loop instead takes a single 64-bit load and masks it to the same 56
   bits, falling back to [word7] only where fewer than 8 arena bytes are
   left (so the load never runs past the buffer). Both give the same word
   on either endianness, so fingerprints do not depend on the path. *)
let[@inline] word7 b i =
  Char.code (Bytes.unsafe_get b i)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get b (i + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get b (i + 6)) lsl 48)

external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let word_mask = (1 lsl 56) - 1

let[@inline] load7 b i =
  let w = unsafe_get64 b i in
  Int64.to_int (if Sys.big_endian then bswap64 w else w) land word_mask

let[@inline] avalanche x =
  let x = (x lxor (x lsr 33)) * p2 in
  let x = (x lxor (x lsr 27)) * p3 in
  x lxor (x lsr 31)

let[@inline] lane1 a w = rotl (a + (w * p2)) 29 * p1
let[@inline] lane2 a w = (rotl (a lxor (w * p3)) 31 * p2) + p4

let hash_bytes b n =
  let a1 = ref (p1 lxor (n * p5)) in
  let a2 = ref ((p2 + n) * p3) in
  let i = ref 0 in
  let limit = n - 7 in
  let load_limit = Int.min limit (Bytes.length b - 8) in
  while !i <= load_limit do
    let w = load7 b !i in
    a1 := lane1 !a1 w;
    a2 := lane2 !a2 w;
    i := !i + 7
  done;
  while !i <= limit do
    let w = word7 b !i in
    a1 := lane1 !a1 w;
    a2 := lane2 !a2 w;
    i := !i + 7
  done;
  let t = ref 1 in
  while !i < n do
    t := (!t lsl 8) lor Char.code (Bytes.unsafe_get b !i);
    incr i
  done;
  let t = !t in
  let a1 = !a1 lxor rotl (t * p4) 17 in
  let a2 = !a2 + ((t lxor p5) * p2) in
  let hi = avalanche (a1 + rotl a2 19 + (n * p3)) in
  let lo = avalanche ((a2 lxor rotl a1 23) + (n * p2)) in
  { hi; lo }

let digest a ?who state =
  match marshal_into a state with
  | n ->
    a.marshalled <- a.marshalled + n;
    hash_bytes a.buf n
  | exception Invalid_argument reason ->
    let spec = match who with Some s -> " of spec " ^ s | None -> "" in
    invalid_arg
      (Printf.sprintf
         "Fingerprint.of_state: state%s is not pure data (%s); specification \
          states must not contain closures, lazy values or other \
          unmarshallable components"
         spec reason)

let of_state ?who state = digest (Domain.DLS.get arena_key) ?who state
let of_candidate ?who state = digest (Domain.DLS.get candidate_key) ?who state

let marshalled_bytes () =
  (Domain.DLS.get arena_key).marshalled
  + (Domain.DLS.get candidate_key).marshalled

let last_marshal () = (Domain.DLS.get arena_key).buf
let of_bytes b n = hash_bytes b n

(* ---- representation ---------------------------------------------------- *)

let of_parts ~hi ~lo = { hi; lo }
let equal a b = a.hi = b.hi && a.lo = b.lo

let compare a b =
  let c = Int.compare a.hi b.hi in
  if c <> 0 then c else Int.compare a.lo b.lo

(* 16-byte codec shared with the checkpoint format: each half serialises as
   8 little-endian bytes of its 63-bit pattern (so byte 7 < 0x80 for
   kernel-1 fingerprints). [of_raw] is total over 16-byte strings: bit 63
   of each half is dropped, so a foreign 128-bit digest (an MD5
   checkpoint) decodes instead of failing mid-file, and the file is then
   refused by its kernel marker. *)
let to_raw { hi; lo } =
  let b = Bytes.create 16 in
  for k = 0 to 7 do
    Bytes.unsafe_set b k (Char.unsafe_chr ((hi lsr (8 * k)) land 0xff));
    Bytes.unsafe_set b (8 + k) (Char.unsafe_chr ((lo lsr (8 * k)) land 0xff))
  done;
  Bytes.unsafe_to_string b

let of_raw s =
  if String.length s <> 16 then
    invalid_arg "Fingerprint.of_raw: expected 16 bytes";
  let word off =
    let v = ref 0 in
    for k = 7 downto 0 do
      v := (!v lsl 8) lor Char.code s.[off + k]
    done;
    !v
  in
  { hi = word 0; lo = word 8 }

let to_hex fp =
  let raw = to_raw fp in
  let hex = "0123456789abcdef" in
  String.init 32 (fun i ->
      let c = Char.code raw.[i / 2] in
      hex.[if i land 1 = 0 then c lsr 4 else c land 0xf])

(* ---- hashing consumers -------------------------------------------------

   The bucket hash consumes a full word built from [lo] mixed with a
   rotation of [hi]; the shard key (lib/par) takes the *top* bits of [hi],
   which never reach the low bucket bits, so per-shard tables stay
   uniformly filled. *)

let bucket_hash { hi; lo } = (lo lxor rotl hi 31) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = bucket_hash
end)

let shard_key fp ~mask = (fp.hi lsr 47) land mask
