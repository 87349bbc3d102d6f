open Sandtable

exception Mismatch of string

let file = "checkpoint.bin"

(* Section kind 2 was the previous generation, whose deliveries carried
   their message descriptor. *)
let file_kind = 4
let retired_kind = 2
let fp_width = 16

(* ---- identity --------------------------------------------------------- *)

let identity ?(extra = []) spec (scenario : Scenario.t) (opts : Explorer.options) =
  let (module S : Spec.S) = spec in
  let b = Buffer.create 256 in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "spec=%s" (Spec.name spec);
  line "scenario=%s" (Fmt.str "%a" Scenario.pp scenario);
  (* the canonicalisation in force, which fixes the stored fingerprint
     values: checkpoints cut under an earlier canonical form ("true") are
     refused by name rather than resumed without deduplicating *)
  line "symmetry=%s" (if opts.symmetry && S.permutable then "keyed" else "false");
  (* every engine stops at the first violation and none checks for
     deadlock; the lines stay so run directories written while these were
     options still resume *)
  line "stop_on_violation=true";
  line "check_deadlock=false";
  (match opts.only_invariants with
  | None -> line "invariants=*"
  | Some names -> line "invariants=%s" (String.concat "," (List.sort compare names)));
  List.iter (fun (k, v) -> line "%s=%s" k v)
    (List.sort compare extra);
  Buffer.contents b

let digest_hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12

(* ---- codec ------------------------------------------------------------ *)

type stats = {
  ck_depth : int;
  ck_distinct : int;
  ck_frontier : int;
  ck_bytes : int;
  ck_seconds : float;
}

let encode_fp b fp = Binio.fixed b (Fingerprint.to_raw fp)
let decode_fp src = Fingerprint.of_raw (Binio.read_fixed src fp_width)

let encode_prov b = function
  | Explorer.Root idx ->
    Binio.u8 b 0;
    Binio.uint b idx
  | Explorer.Step { parent; event } ->
    Binio.u8 b 1;
    encode_fp b parent;
    Trace.encode_event b event

let decode_prov src =
  match Binio.read_u8 src with
  | 0 -> Explorer.Root (Binio.read_uint src)
  | 1 ->
    let parent = decode_fp src in
    let event = Trace.decode_event src in
    Explorer.Step { parent; event }
  | tag -> raise (Binio.Corrupt (Printf.sprintf "unknown provenance tag %d" tag))

let save ?probe ~dir ~identity (snap : Explorer.snapshot) =
  Binio.mkdir_p dir;
  let t0 = Unix.gettimeofday () in
  let path = Filename.concat dir file in
  let frontier = ref 0 in
  Binio.write_file path ~kind:file_kind (fun b ->
      Binio.str b identity;
      Binio.uint b snap.snap_depth;
      Binio.uint b snap.snap_distinct;
      Binio.uint b snap.snap_generated;
      Binio.uint b snap.snap_max_depth;
      Binio.uint b (List.length snap.snap_frontier);
      List.iter
        (fun fp ->
          incr frontier;
          encode_fp b fp)
        snap.snap_frontier;
      (* visited count first, so the reader can pre-size its table; the
         snapshot promises exactly snap_distinct entries *)
      Binio.uint b snap.snap_distinct;
      let written = ref 0 in
      snap.snap_visited (fun fp prov depth ->
          incr written;
          encode_fp b fp;
          encode_prov b prov;
          Binio.uint b depth);
      if !written <> snap.snap_distinct then
        invalid_arg
          (Printf.sprintf
             "Checkpoint.save: snapshot promised %d visited entries, \
              iterator produced %d"
             snap.snap_distinct !written);
      (* trailing generation markers: the fingerprint kernel, then the
         frontier mode; [load] refuses files without them *)
      Binio.uint b Fingerprint.kernel_id;
      Binio.uint b
        (match snap.snap_mode with
        | Explorer.Layered -> 0
        | Explorer.Unordered -> 1));
  let bytes = (Unix.stat path).Unix.st_size in
  let t1 = Unix.gettimeofday () in
  Probe.span_at probe "checkpoint" ~t0 ~t1;
  Probe.count probe "checkpoint.saves" 1;
  Probe.count probe "checkpoint.bytes" bytes;
  { ck_depth = snap.snap_depth;
    ck_distinct = snap.snap_distinct;
    ck_frontier = !frontier;
    ck_bytes = bytes;
    ck_seconds = t1 -. t0 }

let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go = function
    | x :: xs, y :: ys -> if String.equal x y then go (xs, ys) else Some (x, y)
    | x :: _, [] -> Some (x, "<missing>")
    | [], y :: _ -> Some ("<missing>", y)
    | [], [] -> None
  in
  go (la, lb)

let load ~dir ~identity =
  let path = Filename.concat dir file in
  let other_generation what =
    raise
      (Mismatch
         (Printf.sprintf
            "%s comes from another checkpoint generation (%s); this build \
             does not read it — rerun without --resume or point --run-dir \
             elsewhere"
            path what))
  in
  (* named from the header alone, before any entry is decoded *)
  if Binio.section_kind path = Some retired_kind then
    other_generation
      (Printf.sprintf
         "section kind %d, whose deliveries carry their message descriptor; \
          this build reads kind %d"
         retired_kind file_kind);
  let src = Binio.read_file path ~kind:file_kind in
  let stored = Binio.read_str src in
  if not (String.equal stored identity) then begin
    let detail =
      match first_diff_line stored identity with
      | Some (was, now) -> Printf.sprintf " first difference: had %S, now %S;" was now
      | None -> ""
    in
    raise
      (Mismatch
         (Printf.sprintf
            "%s was written for a different exploration (identity %s, \
             current run is %s);%s refusing to resume — rerun without \
             --resume or point --run-dir elsewhere"
            path (digest_hex stored) (digest_hex identity) detail))
  end;
  let snap_depth = Binio.read_uint src in
  let snap_distinct = Binio.read_uint src in
  let snap_generated = Binio.read_uint src in
  let snap_max_depth = Binio.read_uint src in
  let n_frontier = Binio.read_uint src in
  let frontier = List.init n_frontier (fun _ -> decode_fp src) in
  let n_visited = Binio.read_uint src in
  let visited =
    Array.init n_visited (fun _ ->
        let fp = decode_fp src in
        let prov = decode_prov src in
        let depth = Binio.read_uint src in
        (fp, prov, depth))
  in
  let marker name =
    if Binio.remaining src = 0 then
      other_generation ("no " ^ name ^ " marker")
    else Binio.read_uint src
  in
  let kernel = marker "fingerprint-kernel" in
  if kernel <> Fingerprint.kernel_id then
    other_generation
      (Printf.sprintf "kernel %d, this build reads kernel %d" kernel
         Fingerprint.kernel_id);
  let snap_mode =
    match marker "frontier-mode" with
    | 0 -> Explorer.Layered
    | 1 -> Explorer.Unordered
    | tag ->
      raise
        (Binio.Corrupt
           (Printf.sprintf "%s: unknown frontier mode tag %d" path tag))
  in
  if Binio.remaining src <> 0 then
    raise
      (Binio.Corrupt
         (Printf.sprintf "%s: %d trailing bytes after checkpoint payload" path
            (Binio.remaining src)));
  { Explorer.snap_depth;
    snap_frontier = frontier;
    snap_distinct;
    snap_generated;
    snap_max_depth;
    snap_mode;
    snap_visited =
      (fun f -> Array.iter (fun (fp, prov, d) -> f fp prov d) visited) }

let hook ?probe ~dir ~identity ~every ?on_save () =
  fun layer snap ->
    if every > 0 && layer mod every = 0 then begin
      let stats = save ?probe ~dir ~identity (Lazy.force snap) in
      match on_save with Some f -> f stats | None -> ()
    end
