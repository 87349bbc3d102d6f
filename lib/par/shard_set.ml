open Sandtable

(* 64 Fp_stores, each behind its own mutex, picked by Fingerprint.shard_key.
   An entry's reference packs (index in its shard's store, shard) as
   (index lsl 6) lor shard; a step's parent is stored as that reference,
   in the store's 32-bit predecessor word, so a shard holds exactly the
   sequential store's columns. The reference's bit budget is 31 bits: 6
   for the shard and 25 for the index, so a shard holds at most 2^25
   entries (2^31 across the set); the next one fails closed.

   The strict-BFS merge keeps two side columns per shard, indexed like the
   store's entries and as long as its columns: the packed in-layer
   discovery position (63 bits), and the 32-bit slot of the layer's
   winning arrival. pos packs (parent frontier index p, successor index j)
   as (p lsl 31) lor j — packed ints compare exactly like the
   lexicographic pairs. The slot is the caller's name for where it keeps
   that arrival's state, in [0, 2^31); -1 = none. Both columns are
   off-heap [Bigarray]s; only [merge] grows them, so the work-stealing
   engine, which never merges, has none. pos is zero-filled as it grows,
   so an [add_seed] entry reads position (0, 0). *)

let shard_bits = 6
let shard_mask = (1 lsl shard_bits) - 1
let shard_entries = 1 lsl (31 - shard_bits)
let pos_bits = 31
let pos_mask = (1 lsl pos_bits) - 1

type shard = {
  lock : Mutex.t;
  store : Fp_store.t;
  mutable pos : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable arrival :
    (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

type t = shard array

type stat = { s_entries : int }

type merge_outcome =
  | Fresh of int
  | Dup_kept
  | Dup_replaced of {
      entry : int;
      old_event : Trace.event option;
      old_depth : int;
    }

let create () =
  Array.init (shard_mask + 1) (fun _ ->
      { lock = Mutex.create ();
        store = Fp_store.create ~capacity:1024 ();
        pos = Bigarray.(Array1.create int c_layout 0);
        arrival = Bigarray.(Array1.create int32 c_layout 0) })

let key fp = Fingerprint.shard_key fp ~mask:shard_mask

let reference e k =
  if e >= shard_entries then
    invalid_arg
      (Printf.sprintf "Shard_set: more than 2^25 entries in shard %d" k);
  (e lsl shard_bits) lor k

(* the referenced shard and the entry's index in its store *)
let locate t r = t.(r land shard_mask), r lsr shard_bits

(* [f] on the referenced shard and entry index, under the shard's lock. A
   reference to no entry fails closed, before any column is read. *)
let with_entry t r f =
  let s, e = locate t r in
  Mutex.protect s.lock (fun () ->
      if e >= Fp_store.length s.store then
        invalid_arg (Printf.sprintf "Shard_set: no entry for reference %d" r);
      f s e)

let add_seed t fp prov ~depth =
  let k = key fp in
  let s = t.(k) in
  Mutex.protect s.lock (fun () ->
      match Fp_store.add s.store fp prov ~depth with
      | Fp_store.Fresh e -> Some (reference e k)
      | Fp_store.Dup _ -> None)

(* keep the side columns as long as the store's entry columns (call with
   the lock held) *)
let cover s =
  let room = Fp_store.room s.store in
  let len = Bigarray.Array1.dim s.pos in
  if len < room then begin
    let grow col v =
      let c = Bigarray.(Array1.create (Array1.kind col) c_layout room) in
      Bigarray.Array1.(blit col (sub c 0 len));
      Bigarray.Array1.(fill (sub c len (room - len)) v);
      c
    in
    s.pos <- grow s.pos 0;
    s.arrival <- grow s.arrival (-1l)
  end

let merge t fp ~prov ~depth ~pos:(p, j) ~slot =
  if slot < 0 || slot > Int32.(to_int max_int) then
    invalid_arg
      (Printf.sprintf "Shard_set.merge: arrival slot %d outside [0, 2^31)" slot);
  let packed = (p lsl pos_bits) lor j in
  let k = key fp in
  let s = t.(k) in
  Mutex.protect s.lock (fun () ->
      let added = Fp_store.add s.store fp prov ~depth in
      cover s;
      match added with
      | Fp_store.Fresh e ->
        let r = reference e k in
        s.pos.{e} <- packed;
        s.arrival.{e} <- Int32.of_int slot;
        Fresh r
      | Fp_store.Dup e ->
        (* keep the strictly minimal (depth, pos) entry — provenance,
           position and arrival slot replace *together*, so the slot
           always names the state the stored chain replays to (under
           symmetry two distinct concrete states can share a
           fingerprint) *)
        let od = Fp_store.depth s.store e in
        if depth < od || (depth = od && packed < s.pos.{e}) then begin
          (* the displaced entry's discovering edge had been reported as
             fresh by whichever worker won the insertion race; hand its
             identity back so the caller can re-attribute it as the
             duplicate it turned out to be *)
          let old_event =
            match Fp_store.prov s.store e with
            | Fp_store.Proot _ -> None
            | Fp_store.Pstep (_, event) -> Some event
          in
          Fp_store.set_prov s.store e prov ~depth;
          s.pos.{e} <- packed;
          s.arrival.{e} <- Int32.of_int slot;
          Dup_replaced { entry = reference e k; old_event; old_depth = od }
        end
        else Dup_kept)

let find t fp =
  let k = key fp in
  let s = t.(k) in
  Mutex.protect s.lock (fun () ->
      Option.map (fun e -> reference e k) (Fp_store.find s.store fp))

let set_prov t r prov ~depth =
  with_entry t r (fun s e -> Fp_store.set_prov s.store e prov ~depth)

let fp t r = with_entry t r (fun s e -> Fp_store.fp s.store e)
let depth t r = with_entry t r (fun s e -> Fp_store.depth s.store e)

(* the parent's fingerprint is read under its own shard's lock, taken
   only after the child's is released *)
let find_prov_opt t fp' =
  let s = t.(key fp') in
  match
    Mutex.protect s.lock (fun () ->
        Option.map (Fp_store.prov s.store) (Fp_store.find s.store fp'))
  with
  | None -> None
  | Some (Fp_store.Proot i) -> Some (Explorer.Root i)
  | Some (Fp_store.Pstep (r, event)) ->
    Some (Explorer.Step { parent = fp t r; event })

let unpack packed = (packed lsr pos_bits, packed land pos_mask)

let find_pos t r = with_entry t r (fun s e -> unpack s.pos.{e})

let arrival t r =
  with_entry t r (fun s e ->
      if e < Bigarray.Array1.dim s.arrival then Int32.to_int s.arrival.{e}
      else -1)

(* quiescent: no lock, so parents in other shards read directly. Each
   shard is listed in fingerprint order, not in the insertion order the
   worker schedule picked, so a strict-BFS checkpoint's bytes are the same
   run to run *)
let iter t f =
  Array.iter
    (fun s ->
      Fp_store.iter_sorted s.store (fun _ fp prov depth ->
          match prov with
          | Fp_store.Proot i -> f fp (Explorer.Root i) depth
          | Fp_store.Pstep (r, event) ->
            let ps, e = locate t r in
            f fp
              (Explorer.Step { parent = Fp_store.fp ps.store e; event })
              depth))
    t

(* quiescent, like [iter] *)
let count_upto t ~depth ~pos:(p, j) =
  let packed = (p lsl pos_bits) lor j in
  Array.fold_left
    (fun n s ->
      let k = ref n in
      for e = 0 to Fp_store.length s.store - 1 do
        if Fp_store.depth s.store e = depth && s.pos.{e} <= packed then incr k
      done;
      !k)
    0 t

let sum t measure =
  Array.fold_left
    (fun n s -> n + Mutex.protect s.lock (fun () -> measure s))
    0 t

let length t = sum t (fun s -> Fp_store.length s.store)
let capacity t = sum t (fun s -> Fp_store.capacity s.store)
let probe_steps t = sum t (fun s -> Fp_store.probe_steps s.store)

let store_bytes t =
  sum t (fun s ->
      Fp_store.store_bytes s.store
      + Bigarray.Array1.size_in_bytes s.pos
      + Bigarray.Array1.size_in_bytes s.arrival)

let stats t =
  Array.map
    (fun s ->
      Mutex.protect s.lock (fun () -> { s_entries = Fp_store.length s.store }))
    t
