(* lib/store: codec roundtrips and corruption rejection, checkpoint
   save/load, kill-and-resume bit-for-bit equivalence (sequential and
   parallel, cross-engine), disk-spilled frontier equivalence, manifests
   and exit codes. *)

open Sandtable

let case name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "sandtable-store" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let expect_corrupt label needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Binio.Corrupt" label
  | exception Binio.Corrupt m ->
    Alcotest.(check bool)
      (Fmt.str "%s: %S mentions %S" label m needle)
      true (contains m needle)

(* ---- binio primitives ------------------------------------------------- *)

let test_int_roundtrip () =
  let uints = [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1 lsl 40; max_int ] in
  let b = Binio.sink () in
  List.iter (Binio.uint b) uints;
  (* negative ints survive uint as their 63-bit pattern *)
  Binio.uint b (-1);
  let zints = [ 0; -1; 1; -64; 64; min_int; max_int ] in
  List.iter (Binio.zint b) zints;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun v -> Alcotest.(check int) (Fmt.str "uint %d" v) v (Binio.read_uint src))
    uints;
  Alcotest.(check int) "uint -1" (-1) (Binio.read_uint src);
  List.iter
    (fun v -> Alcotest.(check int) (Fmt.str "zint %d" v) v (Binio.read_zint src))
    zints;
  Alcotest.(check int) "fully consumed" 0 (Binio.remaining src)

let test_scalar_roundtrip () =
  let b = Binio.sink () in
  Binio.u8 b 0xab;
  Binio.f64 b 3.14159;
  Binio.f64 b (-0.);
  Binio.f64 b infinity;
  Binio.str b "hello\nwith\000nulls";
  Binio.str b "";
  Binio.fixed b "RAW!";
  let src = Binio.of_string (Binio.contents b) in
  Alcotest.(check int) "u8" 0xab (Binio.read_u8 src);
  Alcotest.(check (float 0.)) "f64" 3.14159 (Binio.read_f64 src);
  Alcotest.(check bool) "-0. bits" true
    (Int64.equal (Int64.bits_of_float (-0.))
       (Int64.bits_of_float (Binio.read_f64 src)));
  Alcotest.(check bool) "inf" true (Binio.read_f64 src = infinity);
  Alcotest.(check string) "str" "hello\nwith\000nulls" (Binio.read_str src);
  Alcotest.(check string) "empty str" "" (Binio.read_str src);
  Alcotest.(check string) "fixed" "RAW!" (Binio.read_fixed src 4)

let test_source_bounds () =
  let src = Binio.of_string "ab" in
  expect_corrupt "overread" "truncated" (fun () -> Binio.read_fixed src 3);
  let src = Binio.of_string "\xff" in
  expect_corrupt "unterminated varint" "truncated" (fun () ->
      Binio.read_uint src)

(* ---- file envelope ---------------------------------------------------- *)

let with_envelope_file payload_fill f =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "file.bin" in
      Binio.write_file path ~kind:7 payload_fill;
      f path)

let rewrite path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_envelope_roundtrip () =
  with_envelope_file
    (fun b -> Binio.str b "payload")
    (fun path ->
      Alcotest.(check (option int)) "section kind" (Some 7)
        (Binio.section_kind path);
      let src = Binio.read_file path ~kind:7 in
      Alcotest.(check string) "payload" "payload" (Binio.read_str src))

let test_envelope_wrong_kind () =
  with_envelope_file
    (fun b -> Binio.str b "x")
    (fun path ->
      expect_corrupt "kind" "wrong section kind" (fun () ->
          Binio.read_file path ~kind:8))

let test_envelope_truncated () =
  with_envelope_file
    (fun b -> Binio.str b "some payload worth truncating")
    (fun path ->
      let raw = read_raw path in
      rewrite path (String.sub raw 0 (String.length raw - 9));
      expect_corrupt "tail cut" "truncated" (fun () ->
          Binio.read_file path ~kind:7);
      rewrite path (String.sub raw 0 5);
      expect_corrupt "header cut" "truncated" (fun () ->
          Binio.read_file path ~kind:7))

let test_envelope_corrupted () =
  with_envelope_file
    (fun b -> Binio.str b "some payload worth corrupting")
    (fun path ->
      let raw = Bytes.of_string (read_raw path) in
      let mid = Bytes.length raw - 12 in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0xff));
      rewrite path (Bytes.to_string raw);
      expect_corrupt "flip" "checksum mismatch" (fun () ->
          Binio.read_file path ~kind:7))

let test_envelope_bad_magic () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "not-binary" in
      rewrite path "just some text, long enough to pass the header check";
      Alcotest.(check (option int)) "not binary" None
        (Binio.section_kind path);
      expect_corrupt "magic" "bad magic" (fun () ->
          Binio.read_file path ~kind:7))

let test_envelope_newer_version () =
  with_envelope_file
    (fun b -> Binio.str b "x")
    (fun path ->
      let raw = Bytes.of_string (read_raw path) in
      Bytes.set raw 4 (Char.chr 99);
      rewrite path (Bytes.to_string raw);
      expect_corrupt "version" "newer" (fun () -> Binio.read_file path ~kind:7))

(* ---- randomized sweeps: varint boundaries + envelope corruption ------- *)

let test_varint_boundary_sweep () =
  (* every power-of-two boundary ±1, both signs, plus min_int/max_int:
     the values where LEB128 grows a byte and zigzag folds the sign *)
  let boundaries =
    List.concat_map
      (fun shift ->
        let p = 1 lsl shift in
        [ p - 1; p; p + 1; -(p - 1); -p; -(p + 1) ])
      (List.init 62 (fun i -> i + 1))
    @ [ 0; 1; -1; min_int; min_int + 1; max_int; max_int - 1 ]
  in
  let b = Binio.sink () in
  List.iter (Binio.zint b) boundaries;
  (* uint takes any int as its 63-bit pattern, negatives included *)
  List.iter (Binio.uint b) boundaries;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun v ->
      Alcotest.(check int) (Fmt.str "zint %d" v) v (Binio.read_zint src))
    boundaries;
  List.iter
    (fun v ->
      Alcotest.(check int) (Fmt.str "uint %d" v) v (Binio.read_uint src))
    boundaries;
  Alcotest.(check int) "fully consumed" 0 (Binio.remaining src)

let test_random_value_roundtrip () =
  (* seeded, so deterministic: random ints, floats and (arbitrary-byte)
     strings written back-to-back and read back in the same order *)
  let rng = Random.State.make [| 0x5eed |] in
  let ints =
    List.init 500 (fun _ ->
        let v = Random.State.full_int rng max_int in
        if Random.State.bool rng then v else -v)
  in
  let floats =
    List.init 200 (fun _ -> Random.State.float rng 1e18 -. 5e17)
  in
  let strs =
    List.init 200 (fun _ ->
        String.init (Random.State.int rng 64) (fun _ ->
            Char.chr (Random.State.int rng 256)))
  in
  let b = Binio.sink () in
  List.iter (Binio.zint b) ints;
  List.iter (Binio.f64 b) floats;
  List.iter (Binio.str b) strs;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun v -> Alcotest.(check int) "zint" v (Binio.read_zint src))
    ints;
  List.iter
    (fun v ->
      Alcotest.(check bool) "f64 bits" true
        (Int64.equal (Int64.bits_of_float v)
           (Int64.bits_of_float (Binio.read_f64 src))))
    floats;
  List.iter
    (fun v -> Alcotest.(check string) "str" v (Binio.read_str src))
    strs;
  Alcotest.(check int) "fully consumed" 0 (Binio.remaining src)

(* The envelope hardening property: no single bit-flip anywhere in the
   file may change what decodes — every flip either raises Corrupt or
   (for the one uncovered byte, the version, where a flip can only lower
   it) yields the exact original payload. Exhaustive over a small file,
   randomized over a large one. *)
let flip_survives path ~kind ~expected bit =
  let raw = Bytes.of_string (read_raw path) in
  let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
  Bytes.set raw byte (Char.chr (Char.code (Bytes.get raw byte) lxor mask));
  let flipped = Filename.concat (Filename.dirname path) "flipped.bin" in
  rewrite flipped (Bytes.to_string raw);
  match Binio.read_file flipped ~kind with
  | exception Binio.Corrupt _ -> ()
  | src ->
    let payload = Binio.read_fixed src (Binio.remaining src) in
    if not (String.equal payload expected) then
      Alcotest.failf
        "bit %d (byte %d): decoded a DIFFERENT payload instead of Corrupt"
        bit byte;
    (* only a version flip may slip through the checks undamaged *)
    if byte <> 4 then
      Alcotest.failf "bit %d (byte %d): flip not detected" bit byte

let test_envelope_bitflip_exhaustive () =
  let expected = "short payload" in
  with_envelope_file
    (fun b -> Binio.fixed b expected)
    (fun path ->
      let bits = 8 * String.length (read_raw path) in
      for bit = 0 to bits - 1 do
        flip_survives path ~kind:7 ~expected bit
      done)

let test_envelope_bitflip_random () =
  let rng = Random.State.make [| 0xb17f11b5 |] in
  let expected =
    String.init 4096 (fun _ -> Char.chr (Random.State.int rng 256))
  in
  with_envelope_file
    (fun b -> Binio.fixed b expected)
    (fun path ->
      let bits = 8 * String.length (read_raw path) in
      (* all of the header and trailer, plus random payload positions *)
      for bit = 0 to (8 * 14) - 1 do
        flip_survives path ~kind:7 ~expected bit
      done;
      for bit = bits - (8 * 8) to bits - 1 do
        flip_survives path ~kind:7 ~expected bit
      done;
      for _ = 1 to 256 do
        flip_survives path ~kind:7 ~expected (Random.State.int rng bits)
      done)

let test_envelope_truncation_sweep () =
  (* every proper prefix of the file must be rejected, never decoded *)
  let expected = "truncate me" in
  with_envelope_file
    (fun b -> Binio.fixed b expected)
    (fun path ->
      let raw = read_raw path in
      for keep = 0 to String.length raw - 1 do
        rewrite path (String.sub raw 0 keep);
        expect_corrupt (Fmt.str "prefix %d" keep) "" (fun () ->
            Binio.read_file path ~kind:7)
      done)

(* ---- typed codecs ----------------------------------------------------- *)

let sample_events : Trace.t =
  [ Trace.Timeout { node = 0; kind = "election" };
    Trace.Deliver { src = 0; dst = 1; index = 0 };
    Trace.Client { node = 0; op = "put:3" };
    Trace.Partition { group = [ 0; 2 ] };
    Trace.Crash { node = 1 };
    Trace.Restart { node = 1 };
    Trace.Heal;
    Trace.Drop { src = 1; dst = 2; index = 1 };
    Trace.Duplicate { src = 2; dst = 0; index = 0 } ]

let test_event_codec () =
  let b = Binio.sink () in
  List.iter (Trace.encode_event b) sample_events;
  let src = Binio.of_string (Binio.contents b) in
  List.iter
    (fun e ->
      let e' = Trace.decode_event src in
      Alcotest.(check bool)
        (Trace.serialize_event e) true (Trace.equal_event e e'))
    sample_events;
  Alcotest.(check int) "consumed" 0 (Binio.remaining src)

let test_counters_codec () =
  let c =
    { Counters.timeouts = 3; requests = 1; crashes = 0; restarts = 4;
      partitions = 2; drops = 9; dups = 128 }
  in
  let b = Binio.sink () in
  Counters.encode b c;
  let c' = Counters.decode (Binio.of_string (Binio.contents b)) in
  Alcotest.(check bool) "counters roundtrip" true (c = c')

(* ---- checkpoints ------------------------------------------------------ *)

let toy_opts = Explorer.default
let snap_ref = ref None

let grab_snapshot layer lazy_snap =
  ignore layer;
  snap_ref := Some (Lazy.force lazy_snap)

let visited_list (snap : Explorer.snapshot) =
  let acc = ref [] in
  snap.snap_visited (fun fp prov d -> acc := (fp, prov, d) :: !acc);
  List.sort compare !acc

let test_checkpoint_roundtrip () =
  with_tmpdir (fun dir ->
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:4 in
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with on_layer = Some grab_snapshot }
      in
      let snap =
        match !snap_ref with
        | Some s -> s
        | None -> Alcotest.fail "no layer hook fired"
      in
      let identity = Store.Checkpoint.identity spec scenario toy_opts in
      let stats = Store.Checkpoint.save ~dir ~identity snap in
      Alcotest.(check int) "stats depth" snap.snap_depth stats.ck_depth;
      Alcotest.(check int)
        "stats frontier"
        (List.length snap.snap_frontier)
        stats.ck_frontier;
      Alcotest.(check bool) "nonempty file" true (stats.ck_bytes > 0);
      let snap' = Store.Checkpoint.load ~dir ~identity in
      Alcotest.(check int) "depth" snap.snap_depth snap'.snap_depth;
      Alcotest.(check int) "distinct" snap.snap_distinct snap'.snap_distinct;
      Alcotest.(check int) "generated" snap.snap_generated snap'.snap_generated;
      Alcotest.(check int) "max_depth" snap.snap_max_depth snap'.snap_max_depth;
      Alcotest.(check (list string))
        "frontier order"
        (List.map Fingerprint.to_hex snap.snap_frontier)
        (List.map Fingerprint.to_hex snap'.snap_frontier);
      Alcotest.(check bool)
        "visited set" true
        (visited_list snap = visited_list snap'))

let test_checkpoint_mismatch () =
  with_tmpdir (fun dir ->
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with on_layer = Some grab_snapshot }
      in
      let snap = Option.get !snap_ref in
      let identity = Store.Checkpoint.identity spec scenario toy_opts in
      let (_ : Store.Checkpoint.stats) =
        Store.Checkpoint.save ~dir ~identity snap
      in
      let other =
        Store.Checkpoint.identity spec scenario
          { toy_opts with symmetry = not toy_opts.symmetry }
      in
      match Store.Checkpoint.load ~dir ~identity:other with
      | _ -> Alcotest.fail "mismatched identity accepted"
      | exception Store.Checkpoint.Mismatch m ->
        Alcotest.(check bool)
          "message explains" true
          (contains m "different exploration" && contains m "symmetry"))

let test_checkpoint_corrupted () =
  with_tmpdir (fun dir ->
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
      snap_ref := None;
      let (_ : Explorer.result) =
        Explorer.check spec scenario
          { toy_opts with on_layer = Some grab_snapshot }
      in
      let identity = Store.Checkpoint.identity spec scenario toy_opts in
      let (_ : Store.Checkpoint.stats) =
        Store.Checkpoint.save ~dir ~identity (Option.get !snap_ref)
      in
      let path = Filename.concat dir Store.Checkpoint.file in
      let raw = Bytes.of_string (read_raw path) in
      let mid = Bytes.length raw / 2 in
      Bytes.set raw mid (Char.chr (Char.code (Bytes.get raw mid) lxor 0x55));
      rewrite path (Bytes.to_string raw);
      expect_corrupt "corrupted checkpoint" "checksum mismatch" (fun () ->
          Store.Checkpoint.load ~dir ~identity))

(* ---- kill and resume -------------------------------------------------- *)

let check_violation_equal label (full : Explorer.result)
    (resumed : Explorer.result) =
  (match full.outcome, resumed.outcome with
  | Explorer.Violation fv, Explorer.Violation rv ->
    Alcotest.(check string) (label ^ " invariant") fv.invariant rv.invariant;
    Alcotest.(check int) (label ^ " depth") fv.depth rv.depth;
    Alcotest.(check string) (label ^ " state") fv.state_repr rv.state_repr;
    Alcotest.(check bool)
      (label ^ " trace") true
      (List.length fv.events = List.length rv.events
      && List.for_all2 Trace.equal_event fv.events rv.events)
  | _ -> Alcotest.failf "%s: both runs must violate" label);
  Alcotest.(check (triple int int int))
    (label ^ " counters")
    (full.distinct, full.generated, full.max_depth)
    (resumed.distinct, resumed.generated, resumed.max_depth)

(* Interrupt a run with a max_depth budget ("the crash"), checkpointing at
   every layer barrier; resume from the last checkpoint without the budget
   and require the exact uninterrupted result, for every engine pairing. *)
let test_kill_and_resume () =
  let spec = Toy_spec.spec ~limit:4 () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:8 in
  let full = Explorer.check spec scenario toy_opts in
  (match full.outcome with
  | Explorer.Violation _ -> ()
  | _ -> Alcotest.fail "uninterrupted run must violate");
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  let interrupted_checkpoint ~par dir =
    let opts =
      { toy_opts with
        max_depth = Some 2;
        on_layer = Some (Store.Checkpoint.hook ~dir ~identity ~every:1 ()) }
    in
    let interrupted =
      if par then (Par.Par_explorer.check ~workers:2 spec scenario opts).base
      else Explorer.check spec scenario opts
    in
    match interrupted.outcome with
    | Explorer.Budget_spent -> ()
    | _ -> Alcotest.fail "interrupted run must stop on budget"
  in
  (* sequentially-written checkpoint, resumed at 1/2/4 workers *)
  with_tmpdir (fun dir ->
      interrupted_checkpoint ~par:false dir;
      let snap = Store.Checkpoint.load ~dir ~identity in
      List.iter
        (fun workers ->
          let resumed =
            if workers = 1 then
              Explorer.check ~resume:snap spec scenario toy_opts
            else
              (Par.Par_explorer.check ~workers ~resume:snap spec scenario
                 toy_opts)
                .base
          in
          check_violation_equal (Fmt.str "seq ckpt, resume j%d" workers) full
            resumed)
        [ 1; 2; 4 ]);
  (* parallel-written checkpoint, resumed by every engine (cross-engine) *)
  with_tmpdir (fun dir ->
      interrupted_checkpoint ~par:true dir;
      let snap = Store.Checkpoint.load ~dir ~identity in
      let resumed = Explorer.check ~resume:snap spec scenario toy_opts in
      check_violation_equal "par ckpt, resume seq" full resumed;
      let resumed =
        Par.Par_explorer.check ~workers:2 ~resume:snap spec scenario toy_opts
      in
      check_violation_equal "par ckpt, resume par j2" full resumed.base;
      (* work stealing reaches the same verdict on a trace that replays to
         it; its depth and early-stop counters depend on the schedule *)
      let resumed =
        Par.Ws_explorer.check ~workers:2 ~resume:snap spec scenario toy_opts
      in
      match full.outcome, resumed.base.outcome with
      | Explorer.Violation fv, Explorer.Violation wv ->
        let l = "par ckpt, resume ws j2" in
        Alcotest.(check string) (l ^ " invariant") fv.invariant wv.invariant;
        Alcotest.(check bool) (l ^ " depth") true (wv.depth >= fv.depth);
        Alcotest.(check (option (pair string int)))
          (l ^ " trace replays to the violation")
          (Some (fv.invariant, List.length wv.events))
          (Script.violation_after spec scenario wv.events)
      | _ -> Alcotest.fail "par ckpt, resume ws j2: must violate")

let test_resume_exhaustive () =
  (* no violation: resumed exploration must still cover the exact space *)
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let full = Explorer.check spec scenario toy_opts in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let opts =
        { toy_opts with
          max_depth = Some 3;
          on_layer = Some (Store.Checkpoint.hook ~dir ~identity ~every:1 ()) }
      in
      let (_ : Explorer.result) = Explorer.check spec scenario opts in
      let snap = Store.Checkpoint.load ~dir ~identity in
      let resumed = Explorer.check ~resume:snap spec scenario toy_opts in
      (match resumed.outcome with
      | Explorer.Exhausted -> ()
      | _ -> Alcotest.fail "resumed run must exhaust");
      Alcotest.(check (triple int int int))
        "exhaustive counters"
        (full.distinct, full.generated, full.max_depth)
        (resumed.distinct, resumed.generated, resumed.max_depth))

let test_checkpoint_symmetry_generation () =
  (* the identity names the canonicalisation that produced the stored
     fingerprints; a checkpoint from the all-permutations generation
     ("symmetry=true") is refused by name, and a keyed one resumes to the
     uninterrupted totals *)
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  Alcotest.(check bool) "symmetric identity is keyed" true
    (contains identity "symmetry=keyed\n");
  Alcotest.(check bool) "symmetry off" true
    (contains
       (Store.Checkpoint.identity spec scenario
          { toy_opts with symmetry = false })
       "symmetry=false\n");
  Alcotest.(check bool) "non-permutable spec" true
    (contains
       (Store.Checkpoint.identity (Systems.Zookeeper.spec ()) scenario toy_opts)
       "symmetry=false\n");
  let full = Explorer.check spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let opts =
        { toy_opts with
          max_depth = Some 3;
          on_layer = Some (Store.Checkpoint.hook ~dir ~identity ~every:1 ()) }
      in
      let (_ : Explorer.result) = Explorer.check spec scenario opts in
      let snap = Store.Checkpoint.load ~dir ~identity in
      let resumed = Explorer.check ~resume:snap spec scenario toy_opts in
      Alcotest.(check (pair int int)) "keyed checkpoint resumes"
        (full.distinct, full.generated) (resumed.distinct, resumed.generated);
      let old_identity =
        String.split_on_char '\n' identity
        |> List.map (function "symmetry=keyed" -> "symmetry=true" | l -> l)
        |> String.concat "\n"
      in
      let (_ : Store.Checkpoint.stats) =
        Store.Checkpoint.save ~dir ~identity:old_identity snap
      in
      match Store.Checkpoint.load ~dir ~identity with
      | _ -> Alcotest.fail "all-permutations checkpoint accepted"
      | exception Store.Checkpoint.Mismatch m ->
        Alcotest.(check bool) "refused by name" true
          (contains m "symmetry=true" && contains m "symmetry=keyed"))

(* ---- recovery paths and checkpoint generations ----------------------- *)

let test_identity_golden () =
  (* resuming a run directory needs the identity to stay byte-for-byte
     what earlier builds wrote, stop_on_violation line included *)
  let spec = Toy_spec.spec ~limit:3 () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
  Alcotest.(check string) "identity"
    "spec=toy\n\
     scenario=toy: 2 nodes, workload {1}, timeouts=3\n\
     symmetry=keyed\n\
     stop_on_violation=true\n\
     check_deadlock=true\n\
     invariants=BelowLimit\n\
     bugs=pso3\n"
    (Store.Checkpoint.identity ~extra:[ ("bugs", "pso3") ] spec scenario
       { toy_opts with
         check_deadlock = true; only_invariants = Some [ "BelowLimit" ] });
  Alcotest.(check string) "identity, symmetry off"
    "spec=toy\n\
     scenario=toy: 2 nodes, workload {1}, timeouts=3\n\
     symmetry=false\n\
     stop_on_violation=true\n\
     check_deadlock=false\n\
     invariants=*\n"
    (Store.Checkpoint.identity spec scenario
       { toy_opts with symmetry = false })

let toy_snapshot spec scenario =
  snap_ref := None;
  let (_ : Explorer.result) =
    Explorer.check spec scenario
      { toy_opts with max_depth = Some 3; on_layer = Some grab_snapshot }
  in
  Option.get !snap_ref

let test_recovery_names_the_input () =
  (* a damaged snapshot fails closed on every engine, naming what is
     wrong with it *)
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let snap = toy_snapshot spec scenario in
  let missing =
    { snap with
      snap_frontier = Fingerprint.of_state "absent" :: snap.snap_frontier }
  in
  (* the toy spec only ever times out, so a Heal step cannot replay *)
  let target = List.hd snap.snap_frontier in
  let unreplayable =
    { snap with
      snap_visited =
        (fun k ->
          snap.snap_visited (fun fp prov d ->
              match prov with
              | Explorer.Step { parent; _ } when Fingerprint.equal fp target
                ->
                k fp (Explorer.Step { parent; event = Trace.Heal }) d
              | _ -> k fp prov d)) }
  in
  let engines =
    [ ( "seq",
        fun resume -> (Explorer.check ~resume spec scenario toy_opts).outcome );
      ( "par -j2",
        fun resume ->
          (Par.Par_explorer.check ~workers:2 ~resume spec scenario toy_opts)
            .base.outcome );
      ( "ws -j2",
        fun resume ->
          (Par.Ws_explorer.check ~workers:2 ~resume spec scenario toy_opts)
            .base.outcome ) ]
  in
  List.iter
    (fun (damaged, needle) ->
      List.iter
        (fun (engine, run) ->
          match run damaged with
          | _ -> Alcotest.failf "%s resumed a snapshot with %s" engine needle
          | exception Invalid_argument m ->
            Alcotest.(check bool)
              (Fmt.str "%s: %S names %S" engine m needle)
              true (contains m needle))
        engines)
    [ (missing, "missing from its visited set");
      (unreplayable, "unreplayable") ]

(* The previous generation's event layout: a delivery carried its message
   descriptor after its address. *)
let encode_previous_event b (e : Trace.event) =
  match e with
  | Trace.Deliver { src; dst; index } ->
    Binio.u8 b 0;
    Binio.uint b src;
    Binio.uint b dst;
    Binio.uint b index;
    Binio.str b "AE(t1,p0:0,+1,c0)"
  | e -> Trace.encode_event b e

(* A checkpoint as older generations wrote it, byte by byte: the payload
   followed by [markers] — none before the fingerprint-kernel marker
   existed, only the kernel before the frontier-mode marker — under
   section [kind] with [encode_event]'s entry layout (by default the
   current ones). *)
let write_old_checkpoint ?(kind = 4) ?(encode_event = Trace.encode_event)
    ~markers path identity (snap : Explorer.snapshot) =
  Binio.write_file path ~kind (fun b ->
      Binio.str b identity;
      Binio.uint b snap.snap_depth;
      Binio.uint b snap.snap_distinct;
      Binio.uint b snap.snap_generated;
      Binio.uint b snap.snap_max_depth;
      Binio.uint b (List.length snap.snap_frontier);
      List.iter (fun fp -> Binio.fixed b (Fingerprint.to_raw fp))
        snap.snap_frontier;
      Binio.uint b snap.snap_distinct;
      snap.snap_visited (fun fp prov depth ->
          Binio.fixed b (Fingerprint.to_raw fp);
          (match prov with
          | Explorer.Root idx ->
            Binio.u8 b 0;
            Binio.uint b idx
          | Explorer.Step { parent; event } ->
            Binio.u8 b 1;
            Binio.fixed b (Fingerprint.to_raw parent);
            encode_event b event);
          Binio.uint b depth);
      List.iter (Binio.uint b) markers)

(* Refused by [Checkpoint.load] with a [Mismatch] containing [needle], and
   by [check --resume] with exit 2 and the same words on stderr. *)
let check_generation_refused ?kind ?encode_event ~markers ~needle () =
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:5 in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  let snap = toy_snapshot spec scenario in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir Store.Checkpoint.file in
      (* the writer is byte-exact: with the current markers it reproduces
         what [save] writes *)
      ignore (Store.Checkpoint.save ~dir ~identity snap);
      let saved = read_raw path in
      write_old_checkpoint ~markers:[ Fingerprint.kernel_id; 0 ] path identity
        snap;
      Alcotest.(check bool) "writer matches save" true (read_raw path = saved);
      write_old_checkpoint ?kind ?encode_event ~markers path identity snap;
      match Store.Checkpoint.load ~dir ~identity with
      | _ -> Alcotest.failf "checkpoint with %s loaded" needle
      | exception Store.Checkpoint.Mismatch m ->
        Alcotest.(check bool)
          (Fmt.str "load: %S names %S" m needle)
          true (contains m needle));
  with_tmpdir (fun dir ->
      let args =
        [ "check"; "pysyncobj"; "-j"; "1"; "--run-dir"; dir;
          "--checkpoint-every"; "1"; "--max-states"; "2000" ]
      in
      let code, _, _ = Test_cli.run_cli args in
      Alcotest.(check int) "budgeted run" 0 code;
      let path = Filename.concat dir Store.Checkpoint.file in
      let identity = Binio.read_str (Binio.read_file path ~kind:4) in
      let snap = Store.Checkpoint.load ~dir ~identity in
      write_old_checkpoint ?kind ?encode_event ~markers path identity snap;
      let code, _, err = Test_cli.run_cli (args @ [ "--resume" ]) in
      Alcotest.(check int) "resume refused" 2 code;
      Alcotest.(check bool)
        (Fmt.str "stderr %S names %S" err needle)
        true (contains err needle))

let test_kernel0_checkpoint_refused () =
  check_generation_refused ~markers:[ 0; 0 ]
    ~needle:
      (Fmt.str "kernel 0, this build reads kernel %d" Fingerprint.kernel_id)
    ()

let test_pre_marker_checkpoint_refused () =
  check_generation_refused ~markers:[] ~needle:"no fingerprint-kernel marker"
    ();
  check_generation_refused ~markers:[ Fingerprint.kernel_id ]
    ~needle:"no frontier-mode marker" ()

let previous_generation =
  "section kind 2, whose deliveries carry their message descriptor"

let test_previous_generation_checkpoint_refused () =
  (* what the previous generation wrote, markers and all *)
  check_generation_refused ~kind:2 ~encode_event:encode_previous_event
    ~markers:[ Fingerprint.kernel_id; 0 ] ~needle:previous_generation ();
  (* named from the header alone: a payload no decoder could read gets
     the same refusal, so no entry was decoded *)
  with_tmpdir (fun dir ->
      Binio.write_file (Filename.concat dir Store.Checkpoint.file) ~kind:2
        (fun b -> Binio.fixed b "\xff\xff\xff");
      match Store.Checkpoint.load ~dir ~identity:"" with
      | _ -> Alcotest.fail "undecodable kind-2 checkpoint loaded"
      | exception Store.Checkpoint.Mismatch m ->
        Alcotest.(check bool)
          (Fmt.str "%S names %S" m previous_generation)
          true (contains m previous_generation))

(* ---- spilled frontier ------------------------------------------------- *)

let test_spill_chunk_corruption () =
  (* a truncated or clobbered chunk file must surface as Binio.Corrupt
     naming the file, not a bare End_of_file/Failure from Marshal *)
  let exercise label damage needle =
    with_tmpdir (fun dir ->
        let factory = Store.Spill.factory ~dir ~window:2 () in
        let q = factory.Explorer.make_frontier () in
        for i = 1 to 40 do
          q.Explorer.fr_push i
        done;
        let chunk =
          match
            List.find_opt
              (fun f -> Filename.check_suffix f ".spill")
              (Array.to_list (Sys.readdir dir))
          with
          | Some f -> Filename.concat dir f
          | None -> Alcotest.fail "no chunk file spilled"
        in
        damage chunk;
        expect_corrupt label needle (fun () ->
            let rec drain () =
              match q.Explorer.fr_pop () with
              | Some _ -> drain ()
              | None -> ()
            in
            drain ());
        q.Explorer.fr_close ())
  in
  exercise "truncated chunk"
    (fun chunk ->
      let raw = read_raw chunk in
      rewrite chunk (String.sub raw 0 (String.length raw / 2)))
    "spill chunk";
  exercise "clobbered chunk"
    (fun chunk -> rewrite chunk "not a marshalled array at all")
    "spill chunk"

let test_spill_equivalence () =
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let plain = Explorer.check spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let factory, stats =
        Store.Spill.factory_with_stats ~dir ~window:4 ()
      in
      let spilled =
        Explorer.check spec scenario { toy_opts with frontier = Some factory }
      in
      (match plain.outcome, spilled.outcome with
      | Explorer.Exhausted, Explorer.Exhausted -> ()
      | _ -> Alcotest.fail "both runs must exhaust");
      Alcotest.(check (triple int int int))
        "counters"
        (plain.distinct, plain.generated, plain.max_depth)
        (spilled.distinct, spilled.generated, spilled.max_depth);
      let s = stats () in
      Alcotest.(check bool)
        (Fmt.str "spilled (%d chunks, %d items)" s.sp_chunks s.sp_items)
        true
        (s.sp_chunks > 0 && s.sp_items > 0);
      Alcotest.(check (array string))
        "chunk files cleaned up" [||] (Sys.readdir dir))

(* Regression: the spilled run must match the in-RAM run even when states go
   through a Marshal round-trip that breaks physical sharing with global
   constants (pysyncobj's crash transition aliases [Log.empty]). Caught a
   real bug: sharing-sensitive fingerprints diverged after a spill. *)
let test_spill_sharing_robust () =
  let bugs = Systems.Bug.flags [ "pso3" ] in
  let spec = Systems.Pysyncobj.spec ~bugs () in
  let scenario = Systems.Pysyncobj.default_scenario in
  let plain = Explorer.check spec scenario Explorer.default in
  with_tmpdir (fun dir ->
      let spilled =
        Explorer.check spec scenario
          { Explorer.default with
            frontier = Some (Store.Spill.factory ~dir ~window:64 ()) }
      in
      check_violation_equal "spill after marshal round-trip" plain spilled)

let test_spill_violation_equivalence () =
  let spec = Toy_spec.spec ~limit:3 () in
  let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
  let plain = Explorer.check spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let spilled =
        Explorer.check spec scenario
          { toy_opts with
            frontier = Some (Store.Spill.factory ~dir ~window:3 ()) }
      in
      check_violation_equal "spill violation" plain spilled)

let test_spill_ops_fifo () =
  with_tmpdir (fun dir ->
      let factory, stats =
        Store.Spill.factory_with_stats ~dir ~window:2 ()
      in
      let q = factory.make_frontier () in
      let n = 50 in
      for i = 1 to n do
        q.fr_push i
      done;
      Alcotest.(check int) "length" n (q.fr_length ());
      let seen = ref [] in
      q.fr_iter (fun x -> seen := x :: !seen);
      Alcotest.(check (list int))
        "iter order" (List.init n (fun i -> i + 1)) (List.rev !seen);
      (* interleave pops and pushes across the spill boundary *)
      let out = ref [] in
      for i = n + 1 to n + 10 do
        (match q.fr_pop () with
        | Some x -> out := x :: !out
        | None -> Alcotest.fail "premature empty");
        q.fr_push i
      done;
      let rec drain () =
        match q.fr_pop () with
        | Some x ->
          out := x :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check (list int))
        "fifo order" (List.init (n + 10) (fun i -> i + 1)) (List.rev !out);
      Alcotest.(check bool) "spilled" true ((stats ()).sp_chunks > 0);
      q.fr_close ();
      Alcotest.(check (array string)) "cleaned" [||] (Sys.readdir dir))

(* ---- sjson ------------------------------------------------------------ *)

let test_sjson_roundtrip () =
  let v =
    Store.Sjson.Obj
      [ ("s", Store.Sjson.Str "hi \"there\"\n\ttab");
        ("n", Store.Sjson.Num 42.);
        ("f", Store.Sjson.Num 1.5);
        ("b", Store.Sjson.Bool true);
        ("z", Store.Sjson.Null);
        ("l", Store.Sjson.List [ Store.Sjson.Num 1.; Store.Sjson.Str "two"; Store.Sjson.Obj [] ]) ]
  in
  match Store.Sjson.of_string (Store.Sjson.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_sjson_errors () =
  List.iter
    (fun bad ->
      match Store.Sjson.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "tru"; "1 2"; "" ]

(* ---- manifests -------------------------------------------------------- *)

let test_manifest_roundtrip () =
  with_tmpdir (fun root ->
      let dir = Filename.concat root "run-a" in
      let m =
        { (Store.Manifest.make ~system:"toy" ~scenario:"toy-2n"
             ~identity:"abc123" ~engine:"seq" ~workers:1
             ~flags:[ ("bugs", "pso4") ] ())
          with
          Store.Manifest.m_status = Store.Manifest.Done;
          m_outcome = Some "violation: BelowLimit";
          m_distinct = 123;
          m_generated = 456;
          m_max_depth = 7;
          m_duration = 1.25;
          m_checkpoints = 3;
          m_checkpoint = Some "checkpoint.bin";
          m_trace = Some "trace.bin" }
      in
      Store.Manifest.save ~dir m;
      (match Store.Manifest.load ~dir with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.failf "load failed: %s" e);
      (* a second, still-running run plus an unreadable one *)
      let dir_b = Filename.concat root "run-b" in
      Store.Manifest.save ~dir:dir_b
        (Store.Manifest.make ~system:"toy" ~scenario:"toy-3n" ~identity:"def"
           ~engine:"par" ~workers:4 ~flags:[] ());
      let dir_c = Filename.concat root "run-c" in
      Unix.mkdir dir_c 0o700;
      rewrite (Filename.concat dir_c Store.Manifest.file) "{ not json";
      match Store.Manifest.list_runs root with
      | [ ("run-a", Ok a); ("run-b", Ok b); ("run-c", Error _) ] ->
        Alcotest.(check bool) "run-a done" true
          (a.Store.Manifest.m_status = Store.Manifest.Done);
        Alcotest.(check bool) "run-b running" true
          (b.Store.Manifest.m_status = Store.Manifest.Running);
        Alcotest.(check string) "pp works" "running"
          (Store.Manifest.status_string b.Store.Manifest.m_status)
      | other ->
        Alcotest.failf "unexpected listing (%d entries)" (List.length other))

(* ---- exit codes ------------------------------------------------------- *)

let test_exit_codes () =
  let violation =
    Explorer.Violation
      { invariant = "X"; events = []; labels = []; depth = 0; state_repr = "" }
  in
  Alcotest.(check int) "exhausted" 0 (Store.Exit_code.of_outcome Explorer.Exhausted);
  Alcotest.(check int) "budget" 0 (Store.Exit_code.of_outcome Explorer.Budget_spent);
  Alcotest.(check int) "violation" 1 (Store.Exit_code.of_outcome violation);
  Alcotest.(check int) "deadlock" 1
    (Store.Exit_code.of_outcome (Explorer.Deadlock { events = []; labels = [] }));
  (* simulation: the toy spec with limit 1 violates on the first event *)
  let clean =
    Simulate.aggregate
      (Simulate.walks (Toy_spec.spec ()) (Toy_spec.scenario ~nodes:2 ~timeouts:2)
         Simulate.default ~seed:1 ~count:5)
  in
  Alcotest.(check int) "sim clean" 0 (Store.Exit_code.of_simulation clean);
  let dirty =
    Simulate.aggregate
      (Simulate.walks
         (Toy_spec.spec ~limit:1 ())
         (Toy_spec.scenario ~nodes:2 ~timeouts:2)
         Simulate.default ~seed:1 ~count:5)
  in
  Alcotest.(check int) "sim violating" 1 (Store.Exit_code.of_simulation dirty);
  let report d =
    { Conformance.rounds_run = 1; total_events = 3; discrepancy = d;
      duration = 0.1 }
  in
  Alcotest.(check int) "conform clean" 0
    (Store.Exit_code.of_conformance (report None));
  Alcotest.(check int) "conform discrepancy" 1
    (Store.Exit_code.of_conformance
       (report
          (Some
             { Conformance.round = 1; events = []; labels = []; failed_at = 0;
               failure = Conformance.Impl_error "boom" })))

let suite =
  ( "store",
    [ case "binio int roundtrips" test_int_roundtrip;
      case "binio scalar roundtrips" test_scalar_roundtrip;
      case "binio source bounds" test_source_bounds;
      case "envelope roundtrip" test_envelope_roundtrip;
      case "envelope wrong kind" test_envelope_wrong_kind;
      case "envelope truncated" test_envelope_truncated;
      case "envelope corrupted" test_envelope_corrupted;
      case "envelope bad magic" test_envelope_bad_magic;
      case "envelope newer version" test_envelope_newer_version;
      case "trace event codec" test_event_codec;
      case "counters codec" test_counters_codec;
      case "checkpoint roundtrip" test_checkpoint_roundtrip;
      case "checkpoint identity mismatch" test_checkpoint_mismatch;
      case "checkpoint records the symmetry generation"
        test_checkpoint_symmetry_generation;
      case "checkpoint corruption rejected" test_checkpoint_corrupted;
      case "kill and resume, all engines" test_kill_and_resume;
      case "resume to exhaustion" test_resume_exhaustive;
      case "checkpoint identity is stable" test_identity_golden;
      case "damaged snapshot named, all engines" test_recovery_names_the_input;
      case "kernel-0 checkpoint refused by name"
        test_kernel0_checkpoint_refused;
      case "pre-marker checkpoint refused by name"
        test_pre_marker_checkpoint_refused;
      case "kind-2 checkpoint refused by name"
        test_previous_generation_checkpoint_refused;
      case "spill chunk corruption surfaces as Corrupt"
        test_spill_chunk_corruption;
      case "spilled frontier equivalence" test_spill_equivalence;
      case "spilled frontier violation" test_spill_violation_equivalence;
      case "spill robust to sharing breaks" test_spill_sharing_robust;
      case "spill ops FIFO across chunks" test_spill_ops_fifo;
      case "sjson roundtrip" test_sjson_roundtrip;
      case "sjson rejects malformed" test_sjson_errors;
      case "manifest roundtrip + listing" test_manifest_roundtrip;
      case "exit codes" test_exit_codes;
      case "varint boundary sweep" test_varint_boundary_sweep;
      case "random value roundtrip" test_random_value_roundtrip;
      case "envelope bit-flip exhaustive" test_envelope_bitflip_exhaustive;
      case "envelope bit-flip random" test_envelope_bitflip_random;
      case "envelope truncation sweep" test_envelope_truncation_sweep ] )
