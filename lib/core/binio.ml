exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

(* FNV-1a, 64-bit, continued from [h] over [get 0], ..., [get (len - 1)]:
   the payload is checksummed where it lies, in a sink's buffer as it is
   flushed or in the file's bytes. *)
let fnv_basis = -0x340d631b7bdddcdbL (* 0xcbf29ce484222325 *)

let fnv h get len =
  let h = ref h in
  for i = 0 to len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (get i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

(* ---- writing ---------------------------------------------------------- *)

(* A sink appends to a buffer. [write_file]'s sink empties it into the
   file whenever it reaches [flush_unit] bytes, hashing what it writes, so
   a payload is never whole in memory; [sink ()] never flushes. *)
type sink = {
  buf : Buffer.t;
  out : out_channel option;  (* [None]: an in-memory sink *)
  limit : int;  (* flush once [buf] holds this many bytes *)
  mutable written : int;  (* bytes flushed to [out] *)
  mutable hash : int64;  (* FNV-1a of those bytes *)
}

let flush_unit = 65536

let sink () =
  { buf = Buffer.create 4096; out = None; limit = max_int; written = 0;
    hash = fnv_basis }

let contents b =
  match b.out with
  | None -> Buffer.contents b.buf
  | Some _ -> invalid_arg "Binio.contents: a file sink's bytes are in its file"

let flush b =
  match b.out with
  | None -> ()
  | Some oc ->
    let n = Buffer.length b.buf in
    b.hash <- fnv b.hash (Buffer.nth b.buf) n;
    Buffer.output_buffer oc b.buf;
    b.written <- b.written + n;
    Buffer.clear b.buf

let u8 b v =
  Buffer.add_char b.buf (Char.chr (v land 0xff));
  if Buffer.length b.buf >= b.limit then flush b

let rec uint b v =
  if v land lnot 0x7f = 0 then u8 b v
  else begin
    u8 b ((v land 0x7f) lor 0x80);
    (* logical shift: negative ints encode as their 63-bit pattern *)
    uint b (v lsr 7)
  end

let zint b v = uint b ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

let f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let fixed b s =
  Buffer.add_string b.buf s;
  if Buffer.length b.buf >= b.limit then flush b

let str b s =
  uint b (String.length s);
  fixed b s

(* ---- reading ---------------------------------------------------------- *)

type source = { data : string; mutable pos : int; limit : int }

let of_string data = { data; pos = 0; limit = String.length data }
let remaining src = src.limit - src.pos

let read_u8 src =
  if src.pos >= src.limit then
    corrupt "truncated input: wanted 1 byte at offset %d, none left" src.pos;
  let c = Char.code src.data.[src.pos] in
  src.pos <- src.pos + 1;
  c

let read_uint src =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint longer than %d bits" Sys.int_size;
    let c = read_u8 src in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_zint src =
  let u = read_uint src in
  (u lsr 1) lxor (- (u land 1))

let read_fixed src n =
  if n < 0 || remaining src < n then
    corrupt "truncated input: wanted %d bytes at offset %d, %d left" n src.pos
      (remaining src);
  let s = String.sub src.data src.pos n in
  src.pos <- src.pos + n;
  s

let read_str src =
  let n = read_uint src in
  read_fixed src n

let read_f64 src =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (read_u8 src)) (8 * i))
  done;
  Int64.float_of_bits !bits

(* ---- atomic file writes ----------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let atomic_write path fill =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".sandtable" ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> fill oc)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ---- envelope --------------------------------------------------------- *)

let magic = "SNTB"
let format_version = 1

let u64le v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))

let read_u64le s pos =
  let v = ref 0L in
  for i = 0 to 7 do
    v :=
      Int64.logor !v
        (Int64.shift_left (Int64.of_int (Char.code s.[pos + i])) (8 * i))
  done;
  !v

(* layout: magic(4) version(u8) kind(u8) payload_len(u64le) payload
   checksum(u64le) *)
let header_len = 4 + 1 + 1 + 8

(* The payload streams through a flushing sink between a header whose
   length field is written as zero and the checksum; the length is then
   written over that field, before [atomic_write] renames the file into
   place. *)
let write_file path ~kind fill =
  atomic_write path (fun oc ->
      output_string oc magic;
      output_char oc (Char.chr format_version);
      output_char oc (Char.chr (kind land 0xff));
      output_string oc (u64le 0L);
      let b =
        { buf = Buffer.create flush_unit; out = Some oc; limit = flush_unit;
          written = 0; hash = fnv_basis }
      in
      fill b;
      flush b;
      output_string oc (u64le b.hash);
      seek_out oc (header_len - 8);
      output_string oc (u64le (Int64.of_int b.written)))

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let section_kind path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        if in_channel_length ic < 6 then None
        else Some (really_input_string ic 6))
  with
  | Some head when String.equal (String.sub head 0 4) magic ->
    Some (Char.code head.[5])
  | Some _ | None -> None
  | exception Sys_error _ -> None

let read_file path ~kind =
  let raw = read_whole_file path in
  let len = String.length raw in
  if len < header_len then
    corrupt "%s: truncated: %d bytes is shorter than the %d-byte header" path
      len header_len;
  if not (String.equal (String.sub raw 0 4) magic) then
    corrupt "%s: not a sandtable binary file (bad magic)" path;
  let version = Char.code raw.[4] in
  if version > format_version then
    corrupt "%s: format version %d is newer than supported version %d" path
      version format_version;
  let file_kind = Char.code raw.[5] in
  if file_kind <> kind then
    corrupt "%s: wrong section kind %d (expected %d)" path file_kind kind;
  (* compare in the int64 domain: Int64.to_int silently drops bit 63, so a
     corrupted length like 2^63 + n would otherwise alias to n *)
  let payload_len64 = read_u64le raw 6 in
  let payload_len = Int64.to_int payload_len64 in
  if
    Int64.compare payload_len64 0L < 0
    || not (Int64.equal payload_len64 (Int64.of_int payload_len))
    || len < header_len + payload_len + 8
  then
    corrupt
      "%s: truncated: header promises %d payload bytes but only %d bytes \
       follow (interrupted write?)"
      path payload_len
      (max 0 (len - header_len));
  let stored = read_u64le raw (header_len + payload_len) in
  let actual = fnv fnv_basis (fun i -> raw.[header_len + i]) payload_len in
  if not (Int64.equal stored actual) then
    corrupt "%s: checksum mismatch (corrupted file)" path;
  { data = raw; pos = header_len; limit = header_len + payload_len }
