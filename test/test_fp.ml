(* The zero-copy fingerprint kernel and the SoA visited stores it feeds:
   determinism, raw/hex codecs, hash distribution (full-word bucket hash,
   shard-key independence), arena growth, and Fp_store semantics. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f

let rand = Random.State.make [| 0x5a9d7ab1e |]
let random_value () =
  (Random.State.int rand 1_000_000,
   Random.State.bits rand,
   String.init (Random.State.int rand 24) (fun _ ->
       Char.chr (Random.State.int rand 256)))

let test_kernel_deterministic () =
  for _ = 1 to 200 do
    let v = random_value () in
    Alcotest.(check bool) "same value, same fingerprint" true
      (Fingerprint.equal (Fingerprint.of_state v) (Fingerprint.of_state v))
  done;
  (* the kernel must be a pure function of the bytes, not of arena history:
     interleave small and large values *)
  let big = String.make 100_000 'x' in
  let small = (1, 2) in
  let f1 = Fingerprint.of_state small in
  let (_ : Fingerprint.t) = Fingerprint.of_state big in
  Alcotest.(check bool) "stable across arena growth" true
    (Fingerprint.equal f1 (Fingerprint.of_state small))

let test_kernel_sensitivity () =
  (* every prefix length crosses the 7-byte stride and tail boundaries *)
  let base = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  let fps =
    List.init 65 (fun n -> Fingerprint.of_state (String.sub base 0 n))
  in
  let distinct =
    List.sort_uniq Fingerprint.compare fps
  in
  Alcotest.(check int) "all lengths 0..64 distinct" 65 (List.length distinct);
  (* single byte flips *)
  let v = Bytes.of_string base in
  let f0 = Fingerprint.of_state (Bytes.to_string v) in
  for i = 0 to Bytes.length v - 1 do
    let c = Bytes.get v i in
    Bytes.set v i (Char.chr (Char.code c lxor 1));
    let f1 = Fingerprint.of_state (Bytes.to_string v) in
    Bytes.set v i c;
    Alcotest.(check bool)
      (Fmt.str "flip at byte %d changes fingerprint" i)
      false (Fingerprint.equal f0 f1)
  done

let test_raw_hex_roundtrip () =
  for _ = 1 to 1000 do
    let fp = Fingerprint.of_state (random_value ()) in
    let raw = Fingerprint.to_raw fp in
    Alcotest.(check int) "raw width" 16 (String.length raw);
    Alcotest.(check bool) "of_raw inverts to_raw" true
      (Fingerprint.equal fp (Fingerprint.of_raw raw));
    Alcotest.(check int) "hex width" 32 (String.length (Fingerprint.to_hex fp));
    let fp' = Fingerprint.of_parts ~hi:fp.Fingerprint.hi ~lo:fp.Fingerprint.lo in
    Alcotest.(check bool) "of_parts rebuilds" true (Fingerprint.equal fp fp')
  done;
  (* foreign 128-bit digests (legacy MD5 checkpoints): of_raw is total and
     idempotent after the first bit-63 masking *)
  for _ = 1 to 1000 do
    let s =
      String.init 16 (fun _ -> Char.chr (Random.State.int rand 256))
    in
    let fp = Fingerprint.of_raw s in
    Alcotest.(check bool) "masking is idempotent" true
      (Fingerprint.equal fp (Fingerprint.of_raw (Fingerprint.to_raw fp)))
  done

let test_cross_domain_stable () =
  (* the marshal arena is domain-local; the fingerprint must not be *)
  let v = random_value () in
  let here = Fingerprint.of_state v in
  let there = Domain.join (Domain.spawn (fun () -> Fingerprint.of_state v)) in
  Alcotest.(check bool) "same fingerprint from another domain" true
    (Fingerprint.equal here there)

(* The kernel as first written: every 7-byte word assembled a byte at a
   time. [Fingerprint.of_state] reads words with one 64-bit load and must
   stay bit-identical to it (checkpoints store fingerprints). *)
let reference_fp v =
  let b = Bytes.of_string (Marshal.to_string v [ Marshal.No_sharing ]) in
  let n = Bytes.length b in
  let p1 = 0x3779b97f4a7c15e7 and p2 = 0x2545f4914f6cdd1d
  and p3 = 0x1c69b3f74ac4ae35 and p4 = 0x27d4eb2f165667c5
  and p5 = 0x165667b19e3779f1 in
  let rotl x r = (x lsl r) lor (x lsr (63 - r)) in
  let avalanche x =
    let x = (x lxor (x lsr 33)) * p2 in
    let x = (x lxor (x lsr 27)) * p3 in
    x lxor (x lsr 31)
  in
  let a1 = ref (p1 lxor (n * p5)) and a2 = ref ((p2 + n) * p3) in
  let i = ref 0 in
  while !i <= n - 7 do
    let w = ref 0 in
    for k = 6 downto 0 do
      w := (!w lsl 8) lor Char.code (Bytes.get b (!i + k))
    done;
    a1 := rotl (!a1 + (!w * p2)) 29 * p1;
    a2 := (rotl (!a2 lxor (!w * p3)) 31 * p2) + p4;
    i := !i + 7
  done;
  let t = ref 1 in
  while !i < n do
    t := (!t lsl 8) lor Char.code (Bytes.get b !i);
    incr i
  done;
  let a1 = !a1 lxor rotl (!t * p4) 17 and a2 = !a2 + ((!t lxor p5) * p2) in
  ( n,
    Fingerprint.of_parts
      ~hi:(avalanche (a1 + rotl a2 19 + (n * p3)))
      ~lo:(avalanche ((a2 lxor rotl a1 23) + (n * p2))) )

let test_kernel_matches_bytewise () =
  let same label v =
    let _, expected = reference_fp v in
    Alcotest.(check string) label (Fingerprint.to_hex expected)
      (Fingerprint.to_hex (Fingerprint.of_state v))
  in
  for len = 0 to 200 do
    same (Fmt.str "string of length %d" len)
      (String.init len (fun i -> Char.chr ((i * 37 + len) land 0xff)))
  done;
  for _ = 1 to 200 do
    same "random value" (random_value ())
  done;
  (* a fresh domain's arena is 64 KiB: marshalled sizes around it put the
     last word, and the tail, on the arena's final bytes *)
  let arena = 1 lsl 16 in
  let payload = arena - fst (reference_fp (String.make 1000 'a')) + 1000 in
  Domain.join
    (Domain.spawn (fun () ->
         for len = payload - 16 to payload do
           let v = String.init len (fun i -> Char.chr (i land 0xff)) in
           let n, _ = reference_fp v in
           if len = payload then
             Alcotest.(check int) "marshalled size fills the arena" arena n;
           same (Fmt.str "%d marshalled bytes in a %d-byte arena" n arena) v
         done))

let samples = 25_600

let histogram_check label buckets key =
  let counts = Array.make buckets 0 in
  for i = 0 to samples - 1 do
    let fp = Fingerprint.of_state (i, i * 31, "dist") in
    let k = key fp in
    counts.(k) <- counts.(k) + 1
  done;
  let mean = samples / buckets in
  Array.iteri
    (fun b c ->
      if c < mean / 2 || c > mean * 2 then
        Alcotest.failf "%s: bucket %d holds %d of %d (mean %d)" label b c
          samples mean)
    counts

let test_bucket_hash_distribution () =
  (* the bucket hash must spread in its low bits (open addressing probes
     with them) AND high bits (a widened hash that only mixed low bits
     would pass the first check) *)
  histogram_check "low 8 bits" 256 (fun fp ->
      Fingerprint.bucket_hash fp land 255);
  histogram_check "bits 40-47" 256 (fun fp ->
      (Fingerprint.bucket_hash fp lsr 40) land 255);
  Alcotest.(check bool) "non-negative" true
    (List.for_all
       (fun i -> Fingerprint.bucket_hash (Fingerprint.of_state i) >= 0)
       (List.init 1000 Fun.id))

let test_shard_key_independent () =
  histogram_check "shard key" 64 (fun fp -> Fingerprint.shard_key fp ~mask:63);
  (* within one shard, the bucket hash's low bits must still spread —
     otherwise per-shard tables would degenerate into probe chains *)
  let low_buckets = Hashtbl.create 64 in
  let n = ref 0 in
  let i = ref 0 in
  while !n < 400 do
    let fp = Fingerprint.of_state (!i, "pinned") in
    if Fingerprint.shard_key fp ~mask:63 = 0 then begin
      incr n;
      Hashtbl.replace low_buckets (Fingerprint.bucket_hash fp land 63) ()
    end;
    incr i
  done;
  Alcotest.(check bool)
    (Fmt.str "one shard's fps hit %d/64 low buckets"
       (Hashtbl.length low_buckets))
    true
    (Hashtbl.length low_buckets >= 48)

let test_marshalled_bytes_counts () =
  let b0 = Fingerprint.marshalled_bytes () in
  let (_ : Fingerprint.t) = Fingerprint.of_state (String.make 1000 'a') in
  let b1 = Fingerprint.marshalled_bytes () in
  Alcotest.(check bool) "counter advances by at least the payload" true
    (b1 - b0 >= 1000)

(* ---- Fp_store ---------------------------------------------------------- *)

let ev n = Trace.Timeout { node = n; kind = "t" }

let test_fp_store_basics () =
  let s = Fp_store.create ~capacity:16 () in
  let fps = Array.init 1000 (fun i -> Fingerprint.of_state (i, "store")) in
  Array.iteri
    (fun i fp ->
      let prov =
        if i = 0 then Fp_store.Proot 0 else Fp_store.Pstep (i - 1, ev (i mod 7))
      in
      match Fp_store.add s fp prov ~depth:(i mod 100) with
      | Fp_store.Fresh e -> Alcotest.(check int) "dense index" i e
      | Fp_store.Dup _ -> Alcotest.failf "fresh fingerprint %d reported dup" i)
    fps;
  Alcotest.(check int) "length" 1000 (Fp_store.length s);
  Alcotest.(check bool) "slots grew past initial capacity" true
    (Fp_store.capacity s >= 2048);
  Array.iteri
    (fun i fp ->
      (match Fp_store.find s fp with
      | Some e -> Alcotest.(check int) "find" i e
      | None -> Alcotest.failf "fingerprint %d lost" i);
      match Fp_store.add s fp (Fp_store.Proot 9) ~depth:0 with
      | Fp_store.Dup e ->
        Alcotest.(check int) "dup keeps index" i e;
        (* a duplicate insert must not disturb the stored entry *)
        Alcotest.(check int) "depth kept" (i mod 100) (Fp_store.depth s i)
      | Fp_store.Fresh _ -> Alcotest.fail "duplicate reported fresh")
    fps;
  (* provenance round-trips, with events interned structurally *)
  (match Fp_store.prov s 500 with
  | Fp_store.Pstep (p, e) ->
    Alcotest.(check int) "pred" 499 p;
    Alcotest.(check bool) "event" true (Trace.equal_event e (ev (500 mod 7)))
  | Fp_store.Proot _ -> Alcotest.fail "expected step");
  (match Fp_store.prov s 0 with
  | Fp_store.Proot 0 -> ()
  | _ -> Alcotest.fail "expected root 0");
  (* iteration is insertion order *)
  let seen = ref 0 in
  Fp_store.iter s (fun e fp _ _ ->
      Alcotest.(check int) "iter order" !seen e;
      Alcotest.(check bool) "iter fp" true (Fingerprint.equal fp fps.(e));
      incr seen);
  Alcotest.(check int) "iterated all" 1000 !seen;
  Alcotest.(check bool) "store_bytes accounted" true
    (Fp_store.store_bytes s
    >= (4 * Fp_store.capacity s) + (24 * Fp_store.length s));
  (* set_prov rewrites provenance and depth together, in place *)
  Fp_store.set_prov s 500 (Fp_store.Pstep (3, ev 5)) ~depth:7;
  (match Fp_store.prov s 500 with
  | Fp_store.Pstep (3, e) ->
    Alcotest.(check bool) "rewritten event" true (Trace.equal_event e (ev 5))
  | _ -> Alcotest.fail "expected the rewritten step");
  Alcotest.(check int) "rewritten depth" 7 (Fp_store.depth s 500);
  Alcotest.(check (option int)) "index unchanged" (Some 500)
    (Fp_store.find s fps.(500));
  (match Fp_store.set_prov s 1000 (Fp_store.Proot 0) ~depth:0 with
  | () -> Alcotest.fail "set_prov past the last entry must raise"
  | exception Invalid_argument _ -> ());
  (* the columns' growth slack is never readable: entry reads outside
     [0, length) fail closed, naming the index *)
  List.iter
    (fun (name, read) ->
      List.iter
        (fun e ->
          Alcotest.check_raises
            (Fmt.str "%s %d" name e)
            (Invalid_argument
               (Fmt.str "Fp_store.%s: no entry %d (length 1000)" name e))
            (fun () -> read e))
        [ 1000; 1001; -1 ])
    [ ("fp", fun e -> ignore (Fp_store.fp s e));
      ("prov", fun e -> ignore (Fp_store.prov s e));
      ("depth", fun e -> ignore (Fp_store.depth s e)) ];
  match Fp_store.add s (Fingerprint.of_state "deep") (Fp_store.Proot 0)
          ~depth:(1 lsl 20)
  with
  | _ -> Alcotest.fail "depth over 2^20 must raise"
  | exception Invalid_argument _ -> ()

(* The 32-bit words' bounds: each fails closed by name, before an entry
   is written, and the values just inside them read back exactly — the
   meta word's top code bit included, which lands in the int32's sign. *)
let test_fp_store_bounds () =
  let s = Fp_store.create ~capacity:16 () in
  let fp i = Fingerprint.of_state (i, "bounds") in
  let refused name msg f =
    let n = Fp_store.length s in
    Alcotest.check_raises name (Invalid_argument msg) f;
    Alcotest.(check int) (name ^ ": no entry written") n (Fp_store.length s)
  in
  let add i prov ~depth = ignore (Fp_store.add s (fp i) prov ~depth) in
  (* 4,096 distinct events: the 12-bit code's every value *)
  for i = 0 to 4095 do
    add i (Fp_store.Pstep (i, ev i)) ~depth:((1 lsl 20) - 1 - (i land 1))
  done;
  for i = 0 to 4095 do
    (match Fp_store.prov s i with
    | Fp_store.Pstep (p, e) when p = i && Trace.equal_event e (ev i) -> ()
    | _ -> Alcotest.failf "entry %d: provenance did not read back" i);
    Alcotest.(check int) "depth" ((1 lsl 20) - 1 - (i land 1))
      (Fp_store.depth s i)
  done;
  refused "4,097th event" "Fp_store: more than 4096 distinct events in one store"
    (fun () -> add 4096 (Fp_store.Pstep (0, ev 4096)) ~depth:0);
  refused "4,097th event by set_prov"
    "Fp_store: more than 4096 distinct events in one store" (fun () ->
      Fp_store.set_prov s 0 (Fp_store.Pstep (0, ev 4096)) ~depth:0);
  (* references: the int32 range, -1 being the root marker *)
  add 4096 (Fp_store.Pstep ((1 lsl 31) - 1, ev 7)) ~depth:3;
  (match Fp_store.prov s 4096 with
  | Fp_store.Pstep (p, _) ->
    Alcotest.(check int) "largest reference" ((1 lsl 31) - 1) p
  | Fp_store.Proot _ -> Alcotest.fail "expected a step");
  List.iter
    (fun r ->
      refused
        (Fmt.str "reference %d" r)
        (Fmt.str "Fp_store: Pstep reference %d outside [0, 2^31)" r)
        (fun () -> add 4097 (Fp_store.Pstep (r, ev 7)) ~depth:0))
    [ 1 lsl 31; (1 lsl 32) + 5; -1 ];
  refused "set_prov reference"
    "Fp_store: Pstep reference 2147483648 outside [0, 2^31)" (fun () ->
      Fp_store.set_prov s 0 (Fp_store.Pstep (1 lsl 31, ev 7)) ~depth:0);
  (* roots share the 12-bit code *)
  add 4097 (Fp_store.Proot 4095) ~depth:0;
  Alcotest.(check bool) "largest root index" true
    (Fp_store.prov s 4097 = Fp_store.Proot 4095);
  refused "root index" "Fp_store: root index 4096 outside [0, 4096)" (fun () ->
      add 4098 (Fp_store.Proot 4096) ~depth:0)

(* The compact layout, pinned: a 4-byte slot and a 24-byte entry (two
   63-bit fingerprint halves, a 32-bit reference and meta word), once the
   slot array and the entry columns have each grown at least twice. *)
let test_fp_store_layout () =
  let s = Fp_store.create ~capacity:16 () in
  let cap0 = Fp_store.capacity s and room0 = Fp_store.room s in
  let i = ref 0 in
  while Fp_store.capacity s < 4 * cap0 || Fp_store.room s < 2 * room0 do
    ignore
      (Fp_store.add s (Fingerprint.of_state (!i, "layout")) (Fp_store.Proot 0)
         ~depth:0);
    incr i
  done;
  Alcotest.(check int) "store_bytes = 4 * capacity + 24 * room"
    ((4 * Fp_store.capacity s) + (24 * Fp_store.room s))
    (Fp_store.store_bytes s);
  (* the strict merge's 32-bit arrival slot *)
  let t = Par.Shard_set.create () in
  Alcotest.check_raises "arrival slot 2^31"
    (Invalid_argument "Shard_set.merge: arrival slot 2147483648 outside [0, 2^31)")
    (fun () ->
      ignore
        (Par.Shard_set.merge t (Fingerprint.of_state "slot")
           ~prov:(Fp_store.Proot 0) ~depth:0 ~pos:(0, 0) ~slot:(1 lsl 31)));
  Alcotest.(check int) "nothing inserted" 0 (Par.Shard_set.length t);
  match
    Par.Shard_set.merge t (Fingerprint.of_state "slot") ~prov:(Fp_store.Proot 0)
      ~depth:0 ~pos:(0, 0) ~slot:((1 lsl 31) - 1)
  with
  | Par.Shard_set.Fresh r ->
    Alcotest.(check int) "largest arrival slot" ((1 lsl 31) - 1)
      (Par.Shard_set.arrival t r)
  | _ -> Alcotest.fail "expected a fresh entry"

(* The stores' columns live off the OCaml heap: filling a store 100x
   leaves its reachable heap words (event intern table, record fields,
   Bigarray headers) where they were. *)
(* Listed by fingerprint, whatever the insertion order: kernel
   fingerprints, and crafted ones at the ends of both halves' signed
   range and sharing a [hi] (the bucket pass orders by [hi] alone). *)
let test_fp_store_iter_sorted () =
  let crafted =
    List.map
      (fun (hi, lo) -> Fingerprint.of_parts ~hi ~lo)
      [ (min_int, 0); (max_int, max_int); (-1, 5); (0, 0); (7, -3); (7, 2);
        (7, min_int); (-1, -5); (max_int, min_int) ]
  in
  List.iter
    (fun n ->
      let fps =
        crafted @ List.init n (fun i -> Fingerprint.of_state (i, "sorted"))
      in
      let s = Fp_store.create ~capacity:16 () in
      List.iteri
        (fun i fp -> ignore (Fp_store.add s fp (Fp_store.Proot 0) ~depth:i))
        fps;
      let listed = ref [] in
      Fp_store.iter_sorted s (fun e fp _ depth ->
          Alcotest.(check bool) "entry's own fingerprint" true
            (Fingerprint.equal fp (Fp_store.fp s e));
          Alcotest.(check int) "entry's own depth" e depth;
          listed := fp :: !listed);
      Alcotest.(check (list string))
        (Fmt.str "%d entries in fingerprint order" (List.length fps))
        (List.map Fingerprint.to_hex (List.sort Fingerprint.compare fps))
        (List.rev_map Fingerprint.to_hex !listed))
    [ 0; 1; 3_000 ];
  let empty = ref 0 in
  Fp_store.iter_sorted (Fp_store.create ()) (fun _ _ _ _ -> incr empty);
  Alcotest.(check int) "an empty store lists nothing" 0 !empty

let test_stores_off_heap () =
  let fill add n =
    for i = 0 to n - 1 do
      let prov =
        if i = 0 then Fp_store.Proot 0 else Fp_store.Pstep (i - 1, ev (i mod 7))
      in
      add (Fingerprint.of_state (i, "heap")) prov ~depth:(i mod 100)
    done
  in
  let growth name make =
    let words n = Obj.reachable_words (Obj.repr (make n)) in
    let small = words 1_000 and large = words 100_000 in
    let per_entry = float_of_int (large - small) /. 99_000. in
    if per_entry >= 0.01 then
      Alcotest.failf "%s: %d -> %d heap words, %.3f per added entry" name
        small large per_entry
  in
  growth "Fp_store" (fun n ->
      let s = Fp_store.create () in
      fill (fun fp prov ~depth -> ignore (Fp_store.add s fp prov ~depth)) n;
      s);
  growth "Shard_set" (fun n ->
      let t = Par.Shard_set.create () in
      fill
        (fun fp prov ~depth -> ignore (Par.Shard_set.add_seed t fp prov ~depth))
        n;
      t)

let suite =
  ( "fingerprint",
    [ case "kernel deterministic" test_kernel_deterministic;
      case "kernel sensitivity" test_kernel_sensitivity;
      case "kernel matches the byte-wise reference"
        test_kernel_matches_bytewise;
      case "raw/hex round-trips" test_raw_hex_roundtrip;
      case "cross-domain stable" test_cross_domain_stable;
      case "bucket hash distribution" test_bucket_hash_distribution;
      case "shard key independent of bucket bits" test_shard_key_independent;
      case "marshalled-bytes counter" test_marshalled_bytes_counts;
      case "fp_store basics" test_fp_store_basics;
      case "fp_store bounds fail closed by name" test_fp_store_bounds;
      case "fp_store layout: 4-byte slots, 24-byte entries"
        test_fp_store_layout;
      case "fp_store iter_sorted is fingerprint order"
        test_fp_store_iter_sorted;
      case "visited stores stay off the heap" test_stores_off_heap ] )
