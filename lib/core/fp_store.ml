(* The visited set: an open-addressed fingerprint table laid out as
   structure-of-arrays. The sequential explorer uses one; the parallel
   engines' [Par.Shard_set] holds 64, one behind each shard lock.

   The old store was an [entry Fingerprint.Tbl.t]: per visited state a
   boxed 16-byte string key, an entry record, a [Step] record and a bucket
   cons cell — ~14 words of heap besides the event payload. Here a state
   costs four ints in flat columns (fingerprint halves, packed
   depth/provenance-code, predecessor reference) plus its share of the
   slot array: ~6–8 words, no pointers for the GC to trace.

   Entries are dense and append-only: index [i] is the [i]-th distinct
   state in discovery order, and indices never move (only the slot array
   rehashes on growth), so a parent is named by one int and iteration in
   insertion order is free. The store never interprets that int: the
   sequential explorer stores the parent's entry index, [Shard_set] a
   packed (index, shard) pair. Events are interned: structurally equal
   events (timeouts, client ops... repeated across thousands of states)
   are stored once and referenced by id. *)

type prov =
  | Proot of int  (* index into the init-state list *)
  | Pstep of int * Trace.event  (* predecessor reference, event *)

type add_result = Fresh of int | Dup of int

(* meta column layout: depth in the low 20 bits, provenance code (event id
   for steps, init index for roots) above. pred = -1 marks a root; step
   references are non-negative. *)
let depth_bits = 20
let depth_mask = (1 lsl depth_bits) - 1
let root_pred = -1

type t = {
  mutable slots : int array;  (* entry index + 1; 0 = empty *)
  mutable fp_hi : int array;
  mutable fp_lo : int array;
  mutable meta : int array;
  mutable preds : int array;  (* predecessor reference; root_pred = root *)
  mutable n : int;
  mutable probes : int;  (* cumulative probe steps beyond the home slot *)
  ev_ids : (Trace.event, int) Hashtbl.t;
  mutable evs : Trace.event array;
  mutable ev_n : int;
}

let rec power_of_two n = if n <= 1 then 1 else 2 * power_of_two ((n + 1) / 2)

let dummy_event = Trace.Heal

let create ?(capacity = 1 lsl 16) () =
  let cap = power_of_two (max 16 capacity) in
  let ents = cap / 2 in
  { slots = Array.make cap 0;
    fp_hi = Array.make ents 0;
    fp_lo = Array.make ents 0;
    meta = Array.make ents 0;
    preds = Array.make ents 0;
    n = 0;
    probes = 0;
    ev_ids = Hashtbl.create 256;
    evs = Array.make 256 dummy_event;
    ev_n = 0 }

let length t = t.n
let capacity t = Array.length t.slots

let store_bytes t =
  (Array.length t.slots
  + Array.length t.fp_hi + Array.length t.fp_lo
  + Array.length t.meta + Array.length t.preds)
  * (Sys.word_size / 8)

let probe_steps t = t.probes

(* Returns the slot holding [fp]'s entry, or the first empty slot of its
   probe chain. Load never exceeds 3/4, so the chain terminates (expected
   probe length stays a small constant; the bucket hash's distribution is
   asserted in test_fp.ml). *)
let find_slot t (fp : Fingerprint.t) =
  let mask = Array.length t.slots - 1 in
  let i = ref (Fingerprint.bucket_hash fp land mask) in
  let steps = ref 0 in
  (try
     while t.slots.(!i) <> 0 do
       let e = t.slots.(!i) - 1 in
       if t.fp_hi.(e) = fp.hi && t.fp_lo.(e) = fp.lo then raise Exit;
       incr steps;
       i := (!i + 1) land mask
     done
   with Exit -> ());
  t.probes <- t.probes + !steps;
  !i

let grow_slots t =
  let cap = 2 * Array.length t.slots in
  let mask = cap - 1 in
  let slots = Array.make cap 0 in
  for e = 0 to t.n - 1 do
    let fp = Fingerprint.of_parts ~hi:t.fp_hi.(e) ~lo:t.fp_lo.(e) in
    let i = ref (Fingerprint.bucket_hash fp land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- e + 1
  done;
  t.slots <- slots

(* Columns grow by 1.5x, not 2x: they are pure appends (no rehash), so a
   gentler factor trades a few more copies for ~17% less average slack —
   and the columns are the bulk of the store's bytes. *)
let grow_column a =
  let n = Array.length a in
  let b = Array.make (n + (n / 2) + 1) 0 in
  Array.blit a 0 b 0 n;
  b

let ensure_entry_room t =
  if t.n = Array.length t.fp_hi then begin
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
    if id = Array.length t.evs then begin
      let b = Array.make (2 * id) dummy_event in
      Array.blit t.evs 0 b 0 id;
      t.evs <- b
    end;
    t.evs.(id) <- ev;
    t.ev_n <- id + 1;
    Hashtbl.replace t.ev_ids ev id;
    id

let pack_meta depth code =
  if depth > depth_mask then invalid_arg "Fp_store: depth exceeds 2^20";
  depth lor (code lsl depth_bits)

let add t fp prov ~depth =
  if 4 * (t.n + 1) > 3 * Array.length t.slots then grow_slots t;
  let slot = find_slot t fp in
  if t.slots.(slot) <> 0 then Dup (t.slots.(slot) - 1)
  else begin
    ensure_entry_room t;
    let e = t.n in
    let pred, code =
      match prov with
      | Proot i -> root_pred, i
      | Pstep (p, ev) -> p, intern t ev
    in
    t.fp_hi.(e) <- fp.Fingerprint.hi;
    t.fp_lo.(e) <- fp.Fingerprint.lo;
    t.meta.(e) <- pack_meta depth code;
    t.preds.(e) <- pred;
    t.slots.(slot) <- e + 1;
    t.n <- e + 1;
    Fresh e
  end

let room t = Array.length t.fp_hi

let find t fp =
  let slot = find_slot t fp in
  if t.slots.(slot) = 0 then None else Some (t.slots.(slot) - 1)

let fp t e = Fingerprint.of_parts ~hi:t.fp_hi.(e) ~lo:t.fp_lo.(e)
let depth t e = t.meta.(e) land depth_mask

let prov t e =
  let code = t.meta.(e) lsr depth_bits in
  if t.preds.(e) = root_pred then Proot code
  else Pstep (t.preds.(e), t.evs.(code))

(* The one way to rewrite an entry: the strict-BFS merge's replacement,
   and checkpoint resume, which inserts every entry before any parent
   reference is known. *)
let set_prov t e prov ~depth =
  if e < 0 || e >= t.n then invalid_arg "Fp_store.set_prov: no such entry";
  let pred, code =
    match prov with
    | Proot i -> root_pred, i
    | Pstep (p, ev) -> p, intern t ev
  in
  t.meta.(e) <- pack_meta depth code;
  t.preds.(e) <- pred

let iter t f =
  for e = 0 to t.n - 1 do
    f e (fp t e) (prov t e) (depth t e)
  done
