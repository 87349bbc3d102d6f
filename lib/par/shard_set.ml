open Sandtable

(* 64 Fp_stores, each behind its own mutex, picked by Fingerprint.shard_key.
   An entry's reference packs (index in its shard's store, shard) as
   (index lsl 6) lor shard; a step's parent is stored as that reference, so
   a shard holds exactly the sequential store's four int columns.

   The strict-BFS merge keeps two side columns per shard, indexed like the
   store's entries and as long as its columns: the packed in-layer
   discovery position, and — only while the next frontier is being built —
   the concrete state the provenance chain replays to. Only [merge] grows
   them, so the work-stealing engine, which never merges, has none. pos
   packs (parent frontier index p, successor index j) as (p lsl 31) lor j —
   packed ints compare exactly like the lexicographic pairs. *)

let shard_bits = 6
let shard_mask = (1 lsl shard_bits) - 1
let pos_bits = 31
let pos_mask = (1 lsl pos_bits) - 1

type 's shard = {
  lock : Mutex.t;
  store : Fp_store.t;
  mutable pos : int array;
  mutable states : 's option array;
}

type 's t = 's shard array

type stat = { s_entries : int }

type merge_outcome =
  | Fresh of int
  | Dup_kept
  | Dup_replaced of { old_event : Trace.event option; old_depth : int }

let create () =
  Array.init (shard_mask + 1) (fun _ ->
      { lock = Mutex.create ();
        store = Fp_store.create ~capacity:1024 ();
        pos = [||];
        states = [||] })

let key fp = Fingerprint.shard_key fp ~mask:shard_mask
let reference e k = (e lsl shard_bits) lor k

(* the referenced shard and the entry's index in its store *)
let locate t r = t.(r land shard_mask), r lsr shard_bits

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
  let len = Array.length s.pos in
  if len < room then begin
    s.pos <- Array.append s.pos (Array.make (room - len) 0);
    s.states <- Array.append s.states (Array.make (room - len) None)
  end

let merge t fp ~prov ~depth ~pos:(p, j) ~state =
  let packed = (p lsl pos_bits) lor j in
  let k = key fp in
  let s = t.(k) in
  Mutex.protect s.lock (fun () ->
      let added = Fp_store.add s.store fp prov ~depth in
      cover s;
      match added with
      | Fp_store.Fresh e ->
        s.pos.(e) <- packed;
        s.states.(e) <- Some state;
        Fresh (reference e k)
      | Fp_store.Dup e ->
        (* keep the strictly minimal (depth, pos) entry — provenance,
           position and state replace *together*, so the stored state is
           always the one the stored chain replays to (under symmetry two
           distinct concrete states can share a fingerprint) *)
        let od = Fp_store.depth s.store e in
        if depth < od || (depth = od && packed < s.pos.(e)) then begin
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
          s.pos.(e) <- packed;
          s.states.(e) <- Some state;
          Dup_replaced { old_event; old_depth = od }
        end
        else Dup_kept)

let find t fp =
  let k = key fp in
  let s = t.(k) in
  Mutex.protect s.lock (fun () ->
      Option.map (fun e -> reference e k) (Fp_store.find s.store fp))

let set_prov t r prov ~depth =
  let s, e = locate t r in
  Mutex.protect s.lock (fun () -> Fp_store.set_prov s.store e prov ~depth)

let fp t r =
  let s, e = locate t r in
  Mutex.protect s.lock (fun () -> Fp_store.fp s.store e)

let depth t r =
  let s, e = locate t r in
  Mutex.protect s.lock (fun () -> Fp_store.depth s.store e)

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

let find_pos t r =
  let s, e = locate t r in
  Mutex.protect s.lock (fun () -> unpack s.pos.(e))

let take_state t r =
  let s, e = locate t r in
  Mutex.protect s.lock (fun () ->
      if e >= Array.length s.states then None
      else
        match s.states.(e) with
        | None -> None
        | Some v ->
          s.states.(e) <- None;
          Some (unpack s.pos.(e), v))

(* quiescent: no lock, so parents in other shards read directly *)
let iter t f =
  Array.iter
    (fun s ->
      Fp_store.iter s.store (fun _ fp prov depth ->
          match prov with
          | Fp_store.Proot i -> f fp (Explorer.Root i) depth
          | Fp_store.Pstep (r, event) ->
            let ps, e = locate t r in
            f fp
              (Explorer.Step { parent = Fp_store.fp ps.store e; event })
              depth))
    t

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
      + ((Array.length s.pos + Array.length s.states) * (Sys.word_size / 8)))

let stats t =
  Array.map
    (fun s ->
      Mutex.protect s.lock (fun () -> { s_entries = Fp_store.length s.store }))
    t
