(* The visited set: an open-addressed fingerprint table laid out as
   structure-of-arrays. The sequential explorer uses one; the parallel
   engines' [Par.Shard_set] holds 64, one behind each shard lock.

   An entry costs 24 bytes of flat columns: its two 63-bit fingerprint
   halves, then two 32-bit words — the predecessor reference, and meta
   (depth in the low 20 bits, provenance code in the high 12, read
   unsigned: the event id for steps, the init index for roots). The slot
   array holds entry index + 1 in 32 bits (0 = empty), so a state's share
   of it is 4 bytes per slot at load <= 3/4. No column holds a pointer for
   the GC to trace.

   Every column, the slot array included, is a [Bigarray] outside the
   OCaml heap, so the major GC neither marks them nor grows its heap in
   proportion to them (OCaml 5 sizes the major heap by its live words,
   which made heap columns cost peak memory well beyond their own bytes).
   The entry columns are left uninitialised — they are only read below
   [n], so their growth slack is never touched and never becomes
   resident; the slot array is zero-filled (0 = empty).

   Entries are dense and append-only: index [i] is the [i]-th distinct
   state in discovery order, and indices never move (only the slot array
   rehashes on growth), so a parent is named by one int and iteration in
   insertion order is free. The store never interprets that int: the
   sequential explorer stores the parent's entry index, [Shard_set] a
   packed (index, shard) pair. Events are interned: structurally equal
   events (timeouts, client ops... repeated across thousands of states)
   are stored once and referenced by id.

   The 32-bit words bound a store, each bound failing closed by name
   before an entry is written: 2^31 - 1 entries (a slot holds index + 1),
   predecessor references in [0, 2^31) (-1 marks a root), 4,096 distinct
   events and init indices below 4,096 (the 12-bit code), depth below
   2^20. *)

type prov =
  | Proot of int  (* index into the init-state list *)
  | Pstep of int * Trace.event  (* predecessor reference, event *)

type add_result = Fresh of int | Dup of int

let depth_bits = 20
let depth_mask = (1 lsl depth_bits) - 1
let codes = 1 lsl (32 - depth_bits)
let int32_max = (1 lsl 31) - 1
let root_pred = -1

type column = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type column32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] get32 (a : column32) i =
  Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* keeps the low 32 bits: meta's top code bit lands in the sign *)
let[@inline] set32 (a : column32) i v =
  Bigarray.Array1.unsafe_set a i (Int32.of_int v)

type t = {
  mutable slots : column32;  (* entry index + 1; 0 = empty *)
  mutable fp_hi : column;
  mutable fp_lo : column;
  mutable meta : column32;
  mutable preds : column32;  (* predecessor reference; root_pred = root *)
  mutable n : int;
  mutable probes : int;  (* cumulative probe steps beyond the home slot *)
  ev_ids : (Trace.event, int) Hashtbl.t;
  mutable evs : Trace.event array;
  mutable ev_n : int;
}

let rec power_of_two n = if n <= 1 then 1 else 2 * power_of_two ((n + 1) / 2)

let dummy_event = Trace.Heal

(* uninitialised: an entry column is read only below [n], and
   [empty_slots] fills the slot array *)
let column kind n = Bigarray.(Array1.create kind c_layout n)

let empty_slots n =
  let slots = column Bigarray.int32 n in
  Bigarray.Array1.fill slots 0l;
  slots

let create ?(capacity = 1 lsl 16) () =
  let cap = power_of_two (max 16 capacity) in
  let ents = cap / 2 in
  { slots = empty_slots cap;
    fp_hi = column Bigarray.int ents;
    fp_lo = column Bigarray.int ents;
    meta = column Bigarray.int32 ents;
    preds = column Bigarray.int32 ents;
    n = 0;
    probes = 0;
    ev_ids = Hashtbl.create 256;
    evs = Array.make 256 dummy_event;
    ev_n = 0 }

let length t = t.n
let capacity t = Bigarray.Array1.dim t.slots

let store_bytes t =
  Bigarray.Array1.(
    size_in_bytes t.slots
    + size_in_bytes t.fp_hi + size_in_bytes t.fp_lo
    + size_in_bytes t.meta + size_in_bytes t.preds)

let probe_steps t = t.probes

(* Returns the slot holding [fp]'s entry, or the first empty slot of its
   probe chain. Load never exceeds 3/4, so the chain terminates (expected
   probe length stays a small constant; the bucket hash's distribution is
   asserted in test_fp.ml). Unchecked reads: [!i] is masked into the slot
   array, and a non-empty slot holds an entry below [n]. *)
let find_slot t (fp : Fingerprint.t) =
  let open Bigarray.Array1 in
  let slots = t.slots in
  let mask = dim slots - 1 in
  let i = ref (Fingerprint.bucket_hash fp land mask) in
  let steps = ref 0 in
  (try
     while get32 slots !i <> 0 do
       let e = get32 slots !i - 1 in
       if unsafe_get t.fp_hi e = fp.hi && unsafe_get t.fp_lo e = fp.lo then
         raise Exit;
       incr steps;
       i := (!i + 1) land mask
     done
   with Exit -> ());
  t.probes <- t.probes + !steps;
  !i

let grow_slots t =
  let open Bigarray.Array1 in
  let cap = 2 * dim t.slots in
  let mask = cap - 1 in
  let slots = empty_slots cap in
  for e = 0 to t.n - 1 do
    let fp =
      Fingerprint.of_parts ~hi:(unsafe_get t.fp_hi e) ~lo:(unsafe_get t.fp_lo e)
    in
    let i = ref (Fingerprint.bucket_hash fp land mask) in
    while get32 slots !i <> 0 do
      i := (!i + 1) land mask
    done;
    set32 slots !i (e + 1)
  done;
  t.slots <- slots

(* Columns grow by 1.5x, not 2x: they are pure appends (no rehash), so a
   gentler factor trades a few more copies for ~17% less average slack —
   and the columns are the bulk of the store's bytes. *)
let grow_column a =
  let open Bigarray.Array1 in
  let n = dim a in
  let b = column (kind a) (n + (n / 2) + 1) in
  blit a (sub b 0 n);
  b

let ensure_entry_room t =
  if t.n = Bigarray.Array1.dim t.fp_hi then begin
    t.fp_hi <- grow_column t.fp_hi;
    t.fp_lo <- grow_column t.fp_lo;
    t.meta <- grow_column t.meta;
    t.preds <- grow_column t.preds
  end

let intern t ev =
  match Hashtbl.find_opt t.ev_ids ev with
  | Some id -> id
  | None ->
    let id = t.ev_n in
    if id = codes then
      invalid_arg
        (Printf.sprintf "Fp_store: more than %d distinct events in one store"
           codes);
    if id = Array.length t.evs then begin
      let b = Array.make (2 * id) dummy_event in
      Array.blit t.evs 0 b 0 id;
      t.evs <- b
    end;
    t.evs.(id) <- ev;
    t.ev_n <- id + 1;
    Hashtbl.replace t.ev_ids ev id;
    id

(* Writes [prov] and [depth] into entry [e]'s pred and meta words, once
   every bound holds (the reference is checked before the event is
   interned). *)
let write_prov t e prov ~depth =
  let pred, code =
    match prov with
    | Proot i ->
      if i < 0 || i >= codes then
        invalid_arg
          (Printf.sprintf "Fp_store: root index %d outside [0, %d)" i codes);
      root_pred, i
    | Pstep (p, ev) ->
      if p < 0 || p > int32_max then
        invalid_arg
          (Printf.sprintf "Fp_store: Pstep reference %d outside [0, 2^31)" p);
      p, intern t ev
  in
  if depth > depth_mask then invalid_arg "Fp_store: depth exceeds 2^20";
  set32 t.meta e (depth lor (code lsl depth_bits));
  set32 t.preds e pred

let add t fp prov ~depth =
  if 4 * (t.n + 1) > 3 * capacity t then grow_slots t;
  let slot = find_slot t fp in
  match get32 t.slots slot with
  | s when s <> 0 -> Dup (s - 1)
  | _ ->
    if t.n = int32_max then
      invalid_arg "Fp_store.add: more than 2^31 - 1 entries in one store";
    ensure_entry_room t;
    let e = t.n in
    write_prov t e prov ~depth;
    Bigarray.Array1.unsafe_set t.fp_hi e fp.Fingerprint.hi;
    Bigarray.Array1.unsafe_set t.fp_lo e fp.Fingerprint.lo;
    set32 t.slots slot (e + 1);
    t.n <- e + 1;
    Fresh e

let room t = Bigarray.Array1.dim t.fp_hi

let find t fp =
  match get32 t.slots (find_slot t fp) with
  | 0 -> None
  | s -> Some (s - 1)

(* The columns' growth slack is uninitialised memory: every read of an
   entry goes through this check first. *)
let check_entry t e name =
  if e < 0 || e >= t.n then
    invalid_arg
      (Printf.sprintf "Fp_store.%s: no entry %d (length %d)" name e t.n)

let fp t e =
  check_entry t e "fp";
  Fingerprint.of_parts
    ~hi:(Bigarray.Array1.unsafe_get t.fp_hi e)
    ~lo:(Bigarray.Array1.unsafe_get t.fp_lo e)

let depth t e =
  check_entry t e "depth";
  get32 t.meta e land depth_mask

let prov t e =
  check_entry t e "prov";
  let code = (get32 t.meta e land 0xFFFF_FFFF) lsr depth_bits in
  match get32 t.preds e with
  | p when p = root_pred -> Proot code
  | p -> Pstep (p, t.evs.(code))

(* The one way to rewrite an entry: the strict-BFS merge's replacement,
   and checkpoint resume, which inserts every entry before any parent
   reference is known. *)
let set_prov t e prov ~depth =
  check_entry t e "set_prov";
  write_prov t e prov ~depth

let iter t f =
  for e = 0 to t.n - 1 do
    f e (fp t e) (prov t e) (depth t e)
  done

(* [Fingerprint.compare] order: the entries are dealt into about one
   bucket each by the top bits of [hi], its sign bit flipped so the
   buckets run in signed order, and each bucket is insertion-sorted on
   both halves. The kernel's halves are uniform, so the buckets stay
   short. [Array.sort] through a comparison closure cost exhaustive strict
   redisraft's two checkpoints about 0.13 s; this costs about 0.02 s. *)
let iter_sorted t f =
  let n = t.n in
  let hi e = Bigarray.Array1.unsafe_get t.fp_hi e in
  let lo e = Bigarray.Array1.unsafe_get t.fp_lo e in
  let rec log2 k = if k <= 1 then 0 else 1 + log2 (k / 2) in
  let bits = max 1 (min 22 (log2 n)) in
  let buckets = 1 lsl bits in
  let bucket e = (hi e lsr (63 - bits)) lxor (buckets / 2) in
  (* bucket [b] fills [order] from [start.(b)] up to [start.(b + 1)] *)
  let start = Array.make (buckets + 1) 0 in
  for e = 0 to n - 1 do
    let b = bucket e + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let next = Array.sub start 0 buckets in
  let order = Array.make n 0 in
  for e = 0 to n - 1 do
    let b = bucket e in
    order.(next.(b)) <- e;
    next.(b) <- next.(b) + 1
  done;
  let less a b = hi a < hi b || (hi a = hi b && lo a < lo b) in
  for b = 0 to buckets - 1 do
    for i = start.(b) + 1 to start.(b + 1) - 1 do
      let e = order.(i) in
      let j = ref (i - 1) in
      while !j >= start.(b) && less e order.(!j) do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- e
    done
  done;
  Array.iter (fun e -> f e (fp t e) (prov t e) (depth t e)) order
