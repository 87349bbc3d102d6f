open Sandtable

let case name f = Alcotest.test_case name `Quick f

let sample : Trace.t =
  [ Trace.Timeout { node = 0; kind = "election" };
    Trace.Deliver { src = 0; dst = 1; index = 0 };
    Trace.Client { node = 0; op = "put:3" };
    Trace.Partition { group = [ 0; 2 ] };
    Trace.Crash { node = 1 };
    Trace.Restart { node = 1 };
    Trace.Heal;
    Trace.Drop { src = 1; dst = 2; index = 1 };
    Trace.Duplicate { src = 2; dst = 0; index = 0 } ]

let sample_labels = [ ""; "RV(t1,l0:0)"; ""; ""; ""; ""; ""; ""; "" ]

let test_text_rendering () =
  (* trace.txt lines (what the golden traces pin), and the numbered form
     reports print: a label follows the event after one space *)
  Alcotest.(check (list string))
    "serialize_event"
    [ "timeout 0 election"; "deliver 0 1 0 RV(t1,l0:0)"; "client 0 put:3";
      "partition 0,2"; "crash 1"; "restart 1"; "heal"; "drop 1 2 1";
      "duplicate 2 0 0" ]
    (List.map2 (fun e label -> Trace.serialize_event ~label e) sample
       sample_labels);
  Alcotest.(check string) "labelled"
    "  1. Timeout n1 election\n  2. Deliver n1->n2 [0] RV(t1,l0:0)\n"
    (Fmt.str "%a" (Trace.pp_labelled sample_labels)
       (List.filteri (fun i _ -> i < 2) sample));
  Alcotest.(check string) "unlabelled" "Deliver n1->n2 [0]"
    (Fmt.str "%a" Trace.pp_event (List.nth sample 1))

let with_temp f =
  let path = Filename.temp_file "sandtable" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let expect_error what needle = function
  | Ok _ -> Alcotest.failf "%s loaded" what
  | Error m ->
    Alcotest.(check bool) (Fmt.str "%s: %S names %S" what m needle) true
      (contains m needle)

let test_file_roundtrip () =
  with_temp (fun path ->
      Trace.save path sample;
      match Trace.load path with
      | Ok events ->
        Alcotest.(check int) "length" (List.length sample) (List.length events);
        List.iter2
          (fun a b -> Alcotest.(check bool) "event" true (Trace.equal_event a b))
          sample events
      | Error line -> Alcotest.failf "load failed at %S" line)

let test_garbage_rejected () =
  (* a well-formed envelope around undecodable events fails closed *)
  with_temp (fun path ->
      Binio.write_file path ~kind:3 (fun b ->
          Binio.uint b 1;
          Binio.u8 b 42);
      expect_error "unknown tag" "unknown event tag 42" (Trace.load path);
      Binio.write_file path ~kind:3 (fun b -> Binio.uint b 5);
      expect_error "short payload" "" (Trace.load path))

let test_equality () =
  let a = Trace.Deliver { src = 0; dst = 1; index = 0 } in
  Alcotest.(check bool) "same address" true
    (Trace.equal_event a (Trace.Deliver { src = 0; dst = 1; index = 0 }));
  let c = Trace.Deliver { src = 0; dst = 1; index = 1 } in
  Alcotest.(check bool) "index significant" false (Trace.equal_event a c);
  Alcotest.(check bool) "kind significant" false
    (Trace.equal_event a (Trace.Drop { src = 0; dst = 1; index = 0 }))

let test_truncated_file () =
  with_temp (fun path ->
      Trace.save path sample;
      let ic = open_in_bin path in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin path in
      output_string oc (String.sub raw 0 (String.length raw / 2));
      close_out oc;
      expect_error "truncated" "truncated" (Trace.load path))

let test_text_file_refused () =
  (* text traces (one serialized event per line) predate the binary
     envelope; they are refused by name, not parsed *)
  with_temp (fun path ->
      let oc = open_out path in
      List.iter
        (fun e -> Printf.fprintf oc "%s\n" (Trace.serialize_event e))
        sample;
      close_out oc;
      expect_error "text trace" "not a binary trace file" (Trace.load path))

(* A trace.bin as the previous generation wrote it, byte by byte: section
   kind 1, and each delivery followed by its message descriptor. *)
let write_previous_generation path trace =
  Binio.write_file path ~kind:1 (fun b ->
      Binio.uint b (List.length trace);
      List.iter
        (fun (e : Trace.event) ->
          match e with
          | Trace.Deliver { src; dst; index } ->
            Binio.u8 b 0;
            Binio.uint b src;
            Binio.uint b dst;
            Binio.uint b index;
            Binio.str b "RV(t1,l0:0)"
          | e -> Trace.encode_event b e)
        trace)

let previous_generation = "previous generation (section kind 1"

let test_previous_generation_refused () =
  with_temp (fun path ->
      write_previous_generation path sample;
      expect_error "kind-1 trace" previous_generation (Trace.load path);
      (* named from the header: an undecodable payload reads the same *)
      Binio.write_file path ~kind:1 (fun b -> Binio.fixed b "\xff\xff");
      expect_error "kind-1 garbage" previous_generation (Trace.load path));
  (* and [shrink DIR] on such a run directory exits 2 with the name *)
  Test_cli.with_tmpdir (fun dir ->
      let code, _, _ =
        Test_cli.run_cli
          [ "check"; "daosraft"; "--bugs"; "daos1"; "-j"; "1"; "--run-dir"; dir ]
      in
      Alcotest.(check int) "violation found" 1 code;
      let path = Filename.concat dir "trace.bin" in
      (match Trace.load path with
      | Ok events -> write_previous_generation path events
      | Error m -> Alcotest.failf "fresh trace.bin: %s" m);
      let code, _, err = Test_cli.run_cli [ "shrink"; dir ] in
      Alcotest.(check int) "shrink refused" 2 code;
      Alcotest.(check bool)
        (Fmt.str "stderr %S names %S" err previous_generation)
        true (contains err previous_generation))

let test_save_atomic () =
  (* save must not leave temp files behind in the target directory *)
  let dir = Filename.temp_file "sandtable" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "t.trace" in
      Trace.save path sample;
      Trace.save path sample;
      Alcotest.(check (array string)) "only the trace" [| "t.trace" |]
        (Sys.readdir dir))

let test_kinds () =
  Alcotest.(check (list string))
    "kind classes"
    [ "timeout"; "deliver"; "client"; "partition"; "crash"; "restart";
      "heal"; "drop"; "duplicate" ]
    (List.map Trace.kind sample)

let suite =
  ( "trace",
    [ case "event text rendering" test_text_rendering;
      case "file save/load roundtrip" test_file_roundtrip;
      case "garbage rejected" test_garbage_rejected;
      case "equality semantics" test_equality;
      case "truncated binary file rejected" test_truncated_file;
      case "text trace file refused by name" test_text_file_refused;
      case "previous-generation trace refused" test_previous_generation_refused;
      case "save is atomic, no temp leftovers" test_save_atomic;
      case "event kinds" test_kinds ] )
