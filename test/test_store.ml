(* lib/store: codec roundtrips and corruption rejection, checkpoint
   save/load, kill-and-resume bit-for-bit equivalence (sequential and
   parallel, cross-engine), the compact frontier and its disk tier in
   every engine, manifests and exit codes. *)

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

(* A payload of about 300 KB — several 64-KiB flush units — mixing every
   writer: varints, fixed-width floats, and strings, some longer than a
   flush unit. *)
let large_fill b =
  for i = 0 to 19_999 do
    Binio.uint b (i * 7919);
    Binio.zint b (-i);
    Binio.u8 b i
  done;
  Binio.f64 b 2.5;
  Binio.str b (String.init 100_000 (fun i -> Char.chr (i land 0xff)));
  Binio.fixed b (String.make 70_000 'z');
  Binio.str b "end"

let check_large_payload src =
  for i = 0 to 19_999 do
    Alcotest.(check int) "uint" (i * 7919) (Binio.read_uint src);
    Alcotest.(check int) "zint" (-i) (Binio.read_zint src);
    Alcotest.(check int) "u8" (i land 0xff) (Binio.read_u8 src)
  done;
  Alcotest.(check (float 0.)) "f64" 2.5 (Binio.read_f64 src);
  Alcotest.(check string) "long str"
    (String.init 100_000 (fun i -> Char.chr (i land 0xff)))
    (Binio.read_str src);
  Alcotest.(check string) "long fixed" (String.make 70_000 'z')
    (Binio.read_fixed src 70_000);
  Alcotest.(check string) "tail" "end" (Binio.read_str src);
  Alcotest.(check int) "nothing left" 0 (Binio.remaining src)

let test_envelope_streamed_roundtrip () =
  with_envelope_file large_fill (fun path ->
      check_large_payload (Binio.read_file path ~kind:7))

(* The streamed file, byte for byte, against the envelope assembled by
   hand from the in-memory payload: magic, version 1, kind, payload
   length (u64 LE), payload, FNV-1a 64 of the payload (u64 LE). *)
let test_envelope_streamed_bytes () =
  let b = Binio.sink () in
  large_fill b;
  let payload = Binio.contents b in
  let u64le v =
    String.init 8 (fun i ->
        Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  in
  let fnv1a =
    String.fold_left
      (fun h c ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
      0xcbf29ce484222325L payload
  in
  let expected =
    String.concat ""
      [ "SNTB\001\007"; u64le (Int64.of_int (String.length payload)); payload;
        u64le fnv1a ]
  in
  with_envelope_file large_fill (fun path ->
      Alcotest.(check int) "file length" (String.length expected)
        (String.length (read_raw path));
      Alcotest.(check bool) "file bytes = hand-built envelope" true
        (read_raw path = expected));
  Alcotest.check_raises "contents of a file sink"
    (Invalid_argument "Binio.contents: a file sink's bytes are in its file")
    (fun () ->
      with_tmpdir (fun dir ->
          Binio.write_file (Filename.concat dir "f.bin") ~kind:7 (fun b ->
              ignore (Binio.contents b))))

(* A fill that raises after several flushes leaves no target and no temp
   file behind. *)
let test_envelope_failed_fill () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "file.bin" in
      (match
         Binio.write_file path ~kind:7 (fun b ->
             large_fill b;
             failwith "fill gave up")
       with
      | () -> Alcotest.fail "write_file swallowed the exception"
      | exception Failure m -> Alcotest.(check string) "raised" "fill gave up" m);
      Alcotest.(check (list string)) "directory empty" []
        (Array.to_list (Sys.readdir dir)))

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

(* The strict engine's visited set is listed by fingerprint, not in the
   insertion order the worker schedule picked, so the checkpoint it writes
   at a layer has the same bytes at 2 workers and at 4, run after run. *)
let test_strict_checkpoint_reproducible () =
  let sys = Systems.Registry.find "redisraft" in
  let spec = sys.spec (Systems.Bug.flags []) in
  let scenario = sys.default_scenario in
  let identity = Store.Checkpoint.identity spec scenario toy_opts in
  let written workers =
    with_tmpdir (fun dir ->
        let opts =
          { toy_opts with
            max_depth = Some 7;
            on_layer = Some (Store.Checkpoint.hook ~dir ~identity ~every:8 ()) }
        in
        let r = Par.Par_explorer.check ~workers spec scenario opts in
        (match r.base.outcome with
        | Explorer.Budget_spent -> ()
        | _ -> Alcotest.fail "the capped run must stop on budget");
        read_raw (Filename.concat dir Store.Checkpoint.file))
  in
  let j2 = written 2 in
  Alcotest.(check bool) "-j 2 and -j 4 write the same bytes" true
    (String.equal j2 (written 4));
  Alcotest.(check bool) "-j 2 again" true (String.equal j2 (written 2))

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
     what earlier builds wrote, stop_on_violation and check_deadlock lines
     included *)
  let spec = Toy_spec.spec ~limit:3 () in
  let scenario = Toy_spec.scenario ~nodes:2 ~timeouts:3 in
  Alcotest.(check string) "identity"
    "spec=toy\n\
     scenario=toy: 2 nodes, workload {1}, timeouts=3\n\
     symmetry=keyed\n\
     stop_on_violation=true\n\
     check_deadlock=false\n\
     invariants=BelowLimit\n\
     bugs=pso3\n"
    (Store.Checkpoint.identity ~extra:[ ("bugs", "pso3") ] spec scenario
       { toy_opts with only_invariants = Some [ "BelowLimit" ] });
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

(* ---- the frontier and its disk tier ------------------------------------ *)

let chunk_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".spill")
    (Array.to_list (Sys.readdir dir))

let with_disk ~window dir f =
  let disk = Frontier.open_disk { Frontier.window; dir = Some dir } in
  Fun.protect ~finally:(fun () -> Frontier.close_disk disk) (fun () -> f disk)

let drain fr =
  let rec go acc =
    match Frontier.pop fr with
    | Some (v, entry, depth) -> go ((v, entry, depth) :: acc)
    | None -> List.rev acc
  in
  go []

let test_spill_chunk_corruption () =
  (* a truncated or clobbered chunk file must surface as Binio.Corrupt
     naming the file, not a bare End_of_file/Failure from Marshal *)
  let exercise label damage =
    with_tmpdir (fun dir ->
        with_disk ~window:2 dir (fun disk ->
            let q : int Frontier.t = Frontier.create ~disk () in
            for i = 1 to 40 do
              Frontier.push_state q ~entry:i ~depth:0 i
            done;
            let chunk =
              match chunk_files dir with
              | f :: _ -> Filename.concat dir f
              | [] -> Alcotest.fail "no chunk file spilled"
            in
            damage chunk;
            expect_corrupt label
              (Filename.basename chunk ^ ": spill chunk")
              (fun () -> drain q);
            Frontier.close q))
  in
  exercise "truncated chunk" (fun chunk ->
      let raw = read_raw chunk in
      rewrite chunk (String.sub raw 0 (String.length raw / 2)));
  exercise "clobbered chunk" (fun chunk ->
      rewrite chunk "not a frontier chunk at all");
  exercise "bit-flipped payload" (fun chunk ->
      let raw = Bytes.of_string (read_raw chunk) in
      let i = Bytes.length raw - 1 in
      Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 1));
      rewrite chunk (Bytes.to_string raw))

(* Counts the chunk files an engine writes, and the states in them, from
   any worker. *)
let spill_counter () =
  let writes = Atomic.make 0 and items = Atomic.make 0 in
  let sink =
    { Probe.s_count =
        (fun ~worker:_ name n ->
          if name = "spill.chunk_writes" then
            ignore (Atomic.fetch_and_add writes n)
          else if name = "spill.items_spilled" then
            ignore (Atomic.fetch_and_add items n));
      s_gauge = (fun ~worker:_ _ _ -> ());
      s_span = (fun ~worker:_ _ _ _ -> ());
      s_layer =
        (fun ~depth:_ ~distinct:_ ~generated:_ ~frontier:_ ~elapsed:_ -> ());
      s_edge = (fun ~worker:_ ~depth:_ ~event:_ ~dup:_ ~sym:_ -> ());
      s_edge_fix = (fun ~worker:_ ~depth:_ ~event:_ -> ()) }
  in
  (Some (Probe.make sink), (fun () -> Atomic.get writes),
   fun () -> Atomic.get items)

let engines =
  [ ("-j 1", fun spec scenario opts -> Explorer.check spec scenario opts);
    ( "--strict-bfs -j 2",
      fun spec scenario opts ->
        (Par.Par_explorer.check ~workers:2 spec scenario opts).base );
    ( "-j 2",
      fun spec scenario opts ->
        (Par.Ws_explorer.check ~workers:2 spec scenario opts).base ) ]

(* Each engine, with and without a spill window, with symmetry reduction
   on (the toy spec is permutable) and off: the spilled run must write at
   least one chunk file and leave the directory empty; [same] compares the
   two results. The toy scenarios below have 4 nodes: at 3, a symmetric
   run's frontier stays too small for every engine to spill. *)
let spill_each_engine ~window spec scenario same =
  List.iter
    (fun symmetry ->
      let opts = { toy_opts with symmetry } in
      List.iter
        (fun (engine, run) ->
          let name = Fmt.str "%s, symmetry %b" engine symmetry in
          let plain = run spec scenario opts in
          with_tmpdir (fun dir ->
              let probe, writes, _ = spill_counter () in
              let spilled =
                run spec scenario
                  { opts with
                    Explorer.spill = Some { Frontier.window; dir = Some dir };
                    probe }
              in
              same engine name plain spilled;
              Alcotest.(check bool)
                (Fmt.str "%s: chunks written (%d)" name (writes ()))
                true
                (writes () > 0);
              Alcotest.(check (list string))
                (name ^ ": chunk files cleaned up") [] (chunk_files dir)))
        engines)
    [ true; false ]

let test_spill_equivalence () =
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:4 ~timeouts:8 in
  spill_each_engine ~window:4 spec scenario
    (fun engine name (plain : Explorer.result) (spilled : Explorer.result) ->
      (match plain.outcome, spilled.outcome with
      | Explorer.Exhausted, Explorer.Exhausted -> ()
      | _ -> Alcotest.failf "%s: both runs must exhaust" name);
      Alcotest.(check (pair int int))
        (name ^ " totals")
        (plain.distinct, plain.generated)
        (spilled.distinct, spilled.generated);
      (* work-stealing discovery depths are schedule-dependent *)
      if engine <> "-j 2" then
        Alcotest.(check int) (name ^ " depth") plain.max_depth
          spilled.max_depth)

let test_spill_violation_equivalence () =
  let spec = Toy_spec.spec ~limit:5 () in
  let scenario = Toy_spec.scenario ~nodes:4 ~timeouts:8 in
  spill_each_engine ~window:3 spec scenario (fun engine name plain spilled ->
      (* work stealing stops wherever its schedule meets the violation:
         only its verdict is schedule-independent *)
      if engine <> "-j 2" then check_violation_equal name plain spilled
      else
        match plain.outcome, spilled.outcome with
        | Explorer.Violation a, Explorer.Violation b ->
          Alcotest.(check string) (name ^ " invariant") a.invariant
            b.invariant
        | _ -> Alcotest.failf "%s: both runs must violate" name)

(* Work stealing queues each state on the worker that found it, so every
   chunk but a queue's newest is a whole batch, and spill writes those. At
   [-j 2] a window of 256 gives each queue 128 entries: a chunk holds the
   full 64, and a chunk file must average at least half of that. *)
let test_ws_spill_whole_batches () =
  let spec = (Systems.Registry.find "pysyncobj").spec (Systems.Bug.flags []) in
  let scenario =
    Scenario.v ~name:"pysyncobj-spill" ~nodes:2 ~workload:[ 1; 2 ]
      [ ("timeouts", 4); ("requests", 2); ("crashes", 1); ("restarts", 1);
        ("partitions", 0); ("buffer", 3) ]
  in
  let seq = Explorer.check spec scenario toy_opts in
  with_tmpdir (fun dir ->
      let probe, writes, items = spill_counter () in
      let ws =
        Par.Ws_explorer.check ~workers:2 spec scenario
          { toy_opts with
            spill = Some { Frontier.window = 256; dir = Some dir };
            probe }
      in
      Alcotest.(check (pair int int)) "exhaustive totals"
        (seq.distinct, seq.generated)
        (ws.base.distinct, ws.base.generated);
      Alcotest.(check bool)
        (Fmt.str "%d states in %d chunk files: at least 32 a file" (items ())
           (writes ()))
        true
        (writes () > 0 && items () >= 32 * writes ());
      Alcotest.(check (list string)) "chunk files cleaned up" []
        (chunk_files dir))

(* A window of 2 at [-j 4] leaves each queue 2 resident entries and
   one-state chunks, so every push opens a batch, and so takes a credit,
   and the pushes past the window spill. From one root, the run must still
   exhaust at the sequential totals. *)
let test_ws_one_state_batches () =
  let spec = Toy_spec.spec () in
  let scenario = Toy_spec.scenario ~nodes:4 ~timeouts:8 in
  List.iter
    (fun symmetry ->
      let opts = { toy_opts with symmetry } in
      let seq = Explorer.check spec scenario opts in
      with_tmpdir (fun dir ->
          let probe, writes, _ = spill_counter () in
          let ws =
            Par.Ws_explorer.check ~workers:4 spec scenario
              { opts with
                spill = Some { Frontier.window = 2; dir = Some dir };
                probe }
          in
          let name = Fmt.str "symmetry %b" symmetry in
          (match ws.base.outcome with
          | Explorer.Exhausted -> ()
          | _ -> Alcotest.failf "%s: must exhaust" name);
          Alcotest.(check (pair int int)) (name ^ " totals")
            (seq.distinct, seq.generated)
            (ws.base.distinct, ws.base.generated);
          Alcotest.(check bool) (name ^ " spilled") true (writes () > 0);
          Alcotest.(check (list string)) (name ^ " chunk files cleaned up")
            [] (chunk_files dir)))
    [ true; false ]

(* Regression: the spilled run must match the in-RAM run even when states go
   through a Marshal round-trip that breaks physical sharing with global
   constants (pysyncobj's crash transition aliases [Log.empty]). Caught a
   real bug: sharing-sensitive fingerprints diverged after a spill. Every
   queued state now makes that round trip. *)
let test_spill_sharing_robust () =
  let bugs = Systems.Bug.flags [ "pso3" ] in
  let spec = Systems.Pysyncobj.spec ~bugs () in
  let scenario = Systems.Pysyncobj.default_scenario in
  let plain = Explorer.check spec scenario Explorer.default in
  with_tmpdir (fun dir ->
      let spilled =
        Explorer.check spec scenario
          { Explorer.default with
            spill = Some { Frontier.window = 64; dir = Some dir } }
      in
      check_violation_equal "spill after marshal round-trip" plain spilled)

(* A run killed with chunk files on disk leaves them behind; the next run
   spilling into that directory owns it and removes them. *)
let test_spill_removes_stale_chunks () =
  with_tmpdir (fun dir ->
      rewrite (Filename.concat dir "chunk-1-000001.spill") "left by a kill";
      let spec = Toy_spec.spec () in
      let scenario = Toy_spec.scenario ~nodes:3 ~timeouts:6 in
      ignore
        (Explorer.check spec scenario
           { toy_opts with
             spill = Some { Frontier.window = 4; dir = Some dir } });
      Alcotest.(check (array string)) "directory ends empty" [||]
        (Sys.readdir dir))

let test_spill_ops_fifo () =
  with_tmpdir (fun dir ->
      with_disk ~window:2 dir (fun disk ->
          let q : int Frontier.t = Frontier.create ~disk () in
          let n = 50 in
          for i = 1 to n do
            Frontier.push_state q ~entry:i ~depth:(i mod 7) i
          done;
          Alcotest.(check int) "length" n (Frontier.length q);
          Alcotest.(check bool) "spilled" true
            (Frontier.spilled_bytes q > 0);
          let seen = ref [] in
          Frontier.iter q (fun entry depth ->
              seen := (entry, depth) :: !seen);
          Alcotest.(check (list (pair int int)))
            "iter order"
            (List.init n (fun i -> (i + 1, (i + 1) mod 7)))
            (List.rev !seen);
          (* interleave pops and pushes across the spill boundary *)
          let out = ref [] in
          for i = n + 1 to n + 10 do
            (match Frontier.pop q with
            | Some (x, entry, _) ->
              Alcotest.(check int) "entry travels with its state" x entry;
              out := x :: !out
            | None -> Alcotest.fail "premature empty");
            Frontier.push_state q ~entry:i ~depth:0 i
          done;
          out :=
            List.rev_append (List.map (fun (x, _, _) -> x) (drain q)) !out;
          Alcotest.(check (list int))
            "fifo order"
            (List.init (n + 10) (fun i -> i + 1))
            (List.rev !out);
          Alcotest.(check int) "nothing left on disk" 0
            (Frontier.spilled_bytes q);
          Frontier.close q;
          Alcotest.(check (list string)) "cleaned" [] (chunk_files dir)))

(* FIFO across chunk boundaries (small chunks, several per window) and
   disk boundaries, for a mix of state sizes. *)
let test_frontier_fifo_boundaries () =
  with_tmpdir (fun dir ->
      with_disk ~window:64 dir (fun disk ->
          let q : string Frontier.t =
            Frontier.create ~chunk_bytes:256 ~disk
              ()
          in
          let value i =
            String.make (i mod 37) (Char.chr (65 + (i mod 26)))
          in
          let pushed = ref 0 and popped = ref 0 in
          let push () =
            Frontier.push_state q ~entry:!pushed
              ~depth:(!pushed land 0xfffff) (value !pushed);
            incr pushed
          in
          let pop () =
            match Frontier.pop q with
            | Some (v, entry, depth) ->
              Alcotest.(check (triple string int int))
                (Fmt.str "entry %d" !popped)
                (value !popped, !popped, !popped land 0xfffff)
                (v, entry, depth);
              incr popped
            | None -> Alcotest.fail "premature empty"
          in
          for round = 1 to 40 do
            for _ = 1 to 50 + (round mod 7) do
              push ()
            done;
            for _ = 1 to 45 do
              pop ()
            done
          done;
          Alcotest.(check bool) "went to disk" true
            (Frontier.spilled_bytes q > 0);
          while !popped < !pushed do
            pop ()
          done;
          Alcotest.(check bool) "empty" true (Frontier.pop q = None);
          Alcotest.(check (list string)) "cleaned" [] (chunk_files dir)))

(* [iter] walks headers only: a payload whose marshalled data no decoder
   accepts is listed by [iter], and only [pop] trips on it. *)
let test_frontier_iter_headers_only () =
  let q : int Frontier.t = Frontier.create () in
  let poisoned = Marshal.to_bytes 0 [ Marshal.No_sharing ] in
  Bytes.set poisoned (Bytes.length poisoned - 1) '\x1f';
  Frontier.push_state q ~entry:1 ~depth:3 7;
  Frontier.push_bytes q ~entry:2 ~depth:4 poisoned 0;
  let seen = ref [] in
  Frontier.iter q (fun entry depth -> seen := (entry, depth) :: !seen);
  Alcotest.(check (list (pair int int)))
    "headers" [ (1, 3); (2, 4) ] (List.rev !seen);
  Alcotest.(check bool) "first pops" true (Frontier.pop q = Some (7, 1, 3));
  match Frontier.pop q with
  | _ -> Alcotest.fail "the poisoned payload unmarshalled"
  | exception Failure _ -> ()

let test_frontier_oversized_entry () =
  let q : string Frontier.t =
    Frontier.create ~chunk_bytes:1024 ()
  in
  let big = String.make 10_000 'x' in
  Frontier.push_state q ~entry:1 ~depth:1 "before";
  Frontier.push_state q ~entry:2 ~depth:1 big;
  Frontier.push_state q ~entry:3 ~depth:1 "after";
  Alcotest.(check bool) "a chunk of its own" true
    (Frontier.resident_bytes q >= 1024 + 10_000);
  Alcotest.(check (list string))
    "fifo" [ "before"; big; "after" ]
    (List.map (fun (v, _, _) -> v) (drain q));
  Alcotest.(check int) "nothing resident" 0 (Frontier.resident_bytes q)

(* The point of the compact frontier: a queued state costs its marshalled
   bytes plus the 8-byte header, not its heap words, and those bytes are
   outside the OCaml heap. *)
let test_frontier_resident_size () =
  let module T = Toy_spec.Make (struct
    let limit = None
  end) in
  let scenario = Toy_spec.scenario ~nodes:5 ~timeouts:40 in
  let states =
    List.init 10_000 (fun i ->
        let s = List.hd (T.init scenario) in
        { s with
          Toy_spec.ticks = Array.init 5 (fun k -> (i lsr (2 * k)) land 3) })
  in
  let q : Toy_spec.state Frontier.t =
    Frontier.create ~chunk_bytes:(64 lsl 10) ()
  in
  List.iteri (fun i s -> Frontier.push_state q ~entry:i ~depth:1 s) states;
  let payload =
    List.fold_left
      (fun n s ->
        n + 8 + Bytes.length (Marshal.to_bytes s [ Marshal.No_sharing ]))
      0 states
  in
  let resident = Frontier.resident_bytes q in
  let ratio = float_of_int resident /. float_of_int payload in
  Alcotest.(check bool)
    (Fmt.str "%d B resident for %d B of entries (%.2fx)" resident payload
       ratio)
    true (ratio <= 1.2);
  let heap_words = Obj.reachable_words (Obj.repr q) in
  Alcotest.(check bool)
    (Fmt.str "%d heap words for 10,000 entries" heap_words)
    true (heap_words < 1_000);
  Alcotest.(check int) "all queued" 10_000 (Frontier.length q)

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
             ~identity:"abc123" ~engine:"seq" ~workers:1 ~cores:1
             ~flags:[ ("bugs", "pso4") ])
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
           ~engine:"par" ~workers:4 ~cores:2 ~flags:[]);
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
      case "envelope streamed across flush units"
        test_envelope_streamed_roundtrip;
      case "envelope streamed bytes match a hand-built envelope"
        test_envelope_streamed_bytes;
      case "envelope failed fill leaves no file" test_envelope_failed_fill;
      case "trace event codec" test_event_codec;
      case "counters codec" test_counters_codec;
      case "checkpoint roundtrip" test_checkpoint_roundtrip;
      case "checkpoint identity mismatch" test_checkpoint_mismatch;
      case "checkpoint records the symmetry generation"
        test_checkpoint_symmetry_generation;
      case "checkpoint corruption rejected" test_checkpoint_corrupted;
      case "kill and resume, all engines" test_kill_and_resume;
      case "resume to exhaustion" test_resume_exhaustive;
      case "strict checkpoints are byte-reproducible"
        test_strict_checkpoint_reproducible;
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
      case "ws spill writes whole batches" test_ws_spill_whole_batches;
      case "ws one-state batches exhaust from one root"
        test_ws_one_state_batches;
      case "spill ops FIFO across chunks" test_spill_ops_fifo;
      case "spill removes stale chunks" test_spill_removes_stale_chunks;
      case "frontier FIFO across chunk and disk boundaries"
        test_frontier_fifo_boundaries;
      case "frontier iter reads headers only"
        test_frontier_iter_headers_only;
      case "frontier entry bigger than a chunk" test_frontier_oversized_entry;
      case "frontier resident bytes per entry" test_frontier_resident_size;
      case "sjson roundtrip" test_sjson_roundtrip;
      case "sjson rejects malformed" test_sjson_errors;
      case "manifest roundtrip + listing" test_manifest_roundtrip;
      case "exit codes" test_exit_codes;
      case "varint boundary sweep" test_varint_boundary_sweep;
      case "random value roundtrip" test_random_value_roundtrip;
      case "envelope bit-flip exhaustive" test_envelope_bitflip_exhaustive;
      case "envelope bit-flip random" test_envelope_bitflip_random;
      case "envelope truncation sweep" test_envelope_truncation_sweep ] )
