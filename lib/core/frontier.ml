(* The exploration frontier as a run of byte chunks.

   A queued state is its [No_sharing] marshalled bytes behind an 8-byte
   header packing its visited-set entry reference and depth as
   (entry lsl 20) lor depth; the payload's length is
   [Marshal.total_size]. A fresh successor's bytes are already in
   [Fingerprint]'s own arena, so a push is one copy and a pop is one copy
   back and one [Marshal.from_bytes]: no live frontier state is promoted
   to, or marked by, the major GC.

   Chunks are char [Bigarray]s, outside the OCaml heap: as heap [Bytes]
   they made the major GC size its heap by them too (explore-nosym peak
   RSS 33.5 MB against 30.6, the sequential WRaft#2 hunt 3.51 GB against
   2.80 GB), for about 5% of explore-nosym's states/s. Copies between
   chunks and [Bytes] move 8 bytes at a time. Chunks are buffers of a
   fixed size; the last one consumed is kept as the spare the next chunk
   reuses, and the rest are left to the GC. An entry larger than a chunk
   gets a chunk of its own. A chunk closes when its next entry does
   not fit or it holds [cap] entries (a work-stealing batch, or half the
   spill window). The frontier is a ring of chunks, oldest first:
   entries are pushed into the last and popped from the first, and the
   work-stealing queues hand out whole chunks at either end.

   The disk tier: once more than [window] entries are resident, the chunk
   that just closed goes to a file as it is — never the first one (being
   popped) or the last (being filled) — and comes back, unchanged, when it
   becomes the first. A chunk file is a header (magic, entry count, byte
   length, the chunk's digest under the fingerprint kernel) and the
   chunk's bytes; a file that does not match its header raises
   [Binio.Corrupt] naming it. *)

type spill = { window : int; dir : string option }

type disk = {
  d_dir : string;
  d_owned : bool;  (* created here, so removed on close *)
  d_window : int;
  d_next : int Atomic.t;  (* file-name counter: frontiers share the dir *)
}

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external bs_get64 : buf -> int -> int64 = "%caml_bigstring_get64u"
external bs_set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external b_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let ba_create n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n
let ba_empty = ba_create 0
let ba_len (b : buf) = Bigarray.Array1.dim b

(* unchecked: callers keep both ranges inside their buffers *)
let blit_in (src : Bytes.t) soff (dst : buf) doff len =
  let i = ref 0 in
  while !i + 8 <= len do
    bs_set64 dst (doff + !i) (b_get64 src (soff + !i));
    i := !i + 8
  done;
  while !i < len do
    Bigarray.Array1.unsafe_set dst (doff + !i)
      (Bytes.unsafe_get src (soff + !i));
    incr i
  done

let blit_out (src : buf) soff (dst : Bytes.t) doff len =
  let i = ref 0 in
  while !i + 8 <= len do
    b_set64 dst (doff + !i) (bs_get64 src (soff + !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.unsafe_set dst (doff + !i)
      (Bigarray.Array1.unsafe_get src (soff + !i));
    incr i
  done

(* a domain-local [Bytes] a chunk's entry or file image is copied into:
   [Marshal] and channels read only [Bytes] *)
let scratch_key = Domain.DLS.new_key (fun () -> ref (Bytes.create 65536))

let scratch n =
  let r = Domain.DLS.get scratch_key in
  if Bytes.length !r < n then r := Bytes.create (max n (2 * Bytes.length !r));
  !r

type block = {
  mutable buf : buf;  (* empty while on disk *)
  mutable fill : int;  (* bytes of entries *)
  mutable count : int;  (* entries *)
  mutable file : string;  (* the chunk file while on disk, else "" *)
}

type 's chunk = block

type 's t = {
  chunk_bytes : int;
  mutable spare : buf;  (* a released chunk-size buffer, for the next chunk *)
  disk : disk option;
  window : int;  (* resident entries before chunks spill *)
  cap : int;  (* entries per chunk *)
  mutable ring : block array;  (* [chunks] chunks from [first], oldest first *)
  mutable first : int;
  mutable chunks : int;
  mutable read : int;  (* byte offset of the first chunk's next entry *)
  mutable popped : int;  (* entries already popped from the first chunk *)
  mutable length : int;
  mutable resident : int;  (* unpopped entries in resident chunks *)
  mutable resident_bytes : int;  (* buffer bytes of resident chunks *)
  mutable spilled_bytes : int;
}

let header = 8
let depth_bits = 20
let depth_mask = (1 lsl depth_bits) - 1
let default_chunk_bytes = 1 lsl 20

(* ---- the disk tier ------------------------------------------------------ *)

let suffix = ".spill"
let magic = "STFRNTR1"
let file_header = 8 + 8 + 8 + 16

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_mk attempt =
    let dir =
      Filename.concat base
        (Printf.sprintf "sandtable-spill-%d-%d" (Unix.getpid ()) attempt)
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when attempt < 1000 ->
      try_mk (attempt + 1)
  in
  try_mk 0

(* The tier owns its directory's chunk files: any left there were written
   by a run killed before it could remove them. *)
let remove_chunk_files dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f suffix then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let open_disk { window; dir } =
  let owned, dir =
    match dir with
    | Some d ->
      mkdir_p d;
      (false, d)
    | None -> (true, fresh_dir ())
  in
  remove_chunk_files dir;
  { d_dir = dir; d_owned = owned; d_window = max 2 window;
    d_next = Atomic.make 0 }

let close_disk d =
  remove_chunk_files d.d_dir;
  if d.d_owned then try Unix.rmdir d.d_dir with Unix.Unix_error _ -> ()

let window d = d.d_window

let corrupt path what =
  raise (Binio.Corrupt (Printf.sprintf "%s: spill chunk %s" path what))

let write_file d c =
  let path =
    Filename.concat d.d_dir
      (Printf.sprintf "chunk-%d-%06d%s" (Unix.getpid ())
         (Atomic.fetch_and_add d.d_next 1) suffix)
  in
  let h = Bytes.create file_header in
  let body = scratch c.fill in
  blit_out c.buf 0 body 0 c.fill;
  Bytes.blit_string magic 0 h 0 8;
  Bytes.set_int64_le h 8 (Int64.of_int c.count);
  Bytes.set_int64_le h 16 (Int64.of_int c.fill);
  Bytes.blit_string (Fingerprint.to_raw (Fingerprint.of_bytes body c.fill))
    0 h 24 16;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_bytes oc h;
      output oc body 0 c.fill;
      close_out oc);
  path

(* Read a chunk file back into [into] (at least [fill] bytes), checking it
   against its header and the chunk record it was written from. *)
let read_file path ~count ~fill into =
  match open_in_bin path with
  | exception Sys_error m -> corrupt path ("is missing (" ^ m ^ ")")
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        if size < file_header + fill then corrupt path "truncated (disk full?)";
        let h = really_input_string ic file_header in
        if
          String.sub h 0 8 <> magic
          || Int64.to_int (String.get_int64_le h 8) <> count
          || Int64.to_int (String.get_int64_le h 16) <> fill
          || size <> file_header + fill
        then corrupt path "does not match its header (clobbered?)";
        let body = scratch fill in
        really_input ic body 0 fill;
        if
          not
            (Fingerprint.equal
               (Fingerprint.of_bytes body fill)
               (Fingerprint.of_raw (String.sub h 24 16)))
        then corrupt path "fails its digest (clobbered?)";
        blit_in body 0 into 0 fill;
        into)

(* ---- chunks ------------------------------------------------------------ *)

let dummy = { buf = ba_empty; fill = 0; count = 0; file = "" }

let[@inline] word b off = Int64.to_int (bs_get64 b off)
let[@inline] entry_at b off = word b off lsr depth_bits
let[@inline] depth_at b off = word b off land depth_mask

(* the length of the payload after the header at [off], from its marshal
   header (at most 32 bytes) *)
let payload_size (b : buf) off =
  let h = scratch 32 in
  blit_out b (off + header) h 0 (min 32 (ba_len b - off - header));
  Marshal.total_size h 0

let state_at b off len =
  let s = scratch len in
  blit_out b (off + header) s 0 len;
  Marshal.from_bytes s 0

(* [f k off len] over [count] entries from byte [from]: [k] counts from 0,
   [off] is the entry's header and [len] its payload's length *)
let walk b ~from ~count f =
  let off = ref from in
  for k = 0 to count - 1 do
    let o = !off in
    let len = payload_size b o in
    off := o + header + len;
    f k o len
  done

let chunk_iter c f =
  let b = c.buf in
  walk b ~from:0 ~count:c.count (fun _ o len ->
      f (entry_at b o) (depth_at b o) (state_at b o len))

(* ---- the ring ----------------------------------------------------------- *)

let create ?disk ?window ?(batch = max_int) ?(chunk_bytes = default_chunk_bytes)
    () =
  let window =
    match disk, window with
    | None, _ -> max_int
    | Some d, None -> d.d_window
    | Some _, Some w -> max 2 w
  in
  let cap =
    if window = max_int then batch else min batch (max 1 (window / 2))
  in
  { chunk_bytes = max 64 chunk_bytes; spare = ba_empty; disk; window; cap;
    ring = Array.make 8 dummy; first = 0; chunks = 0; read = 0; popped = 0;
    length = 0; resident = 0; resident_bytes = 0; spilled_bytes = 0 }

let[@inline] nth t i = t.ring.((t.first + i) land (Array.length t.ring - 1))

let add_last t c =
  let len = Array.length t.ring in
  if t.chunks = len then begin
    t.ring <-
      Array.init (2 * len) (fun i -> if i < len then nth t i else dummy);
    t.first <- 0
  end;
  t.ring.((t.first + t.chunks) land (Array.length t.ring - 1)) <- c;
  t.chunks <- t.chunks + 1

let remove t i =
  let slot = (t.first + i) land (Array.length t.ring - 1) in
  let c = t.ring.(slot) in
  t.ring.(slot) <- dummy;
  if i = 0 then t.first <- (t.first + 1) land (Array.length t.ring - 1);
  t.chunks <- t.chunks - 1;
  c

(* a chunk-size buffer the frontier is done with becomes the spare for
   its next chunk *)
let release t b = if ba_len b = t.chunk_bytes then t.spare <- b

let fresh_buf t need =
  if need <= t.chunk_bytes && ba_len t.spare > 0 then begin
    let b = t.spare in
    t.spare <- ba_empty;
    b
  end
  else ba_create (max t.chunk_bytes need)

let spill_out ?probe t d c =
  Probe.span_begin probe "spill-io";
  let path = write_file d c in
  Probe.span_end probe "spill-io";
  Probe.count probe "spill.chunk_writes" 1;
  Probe.count probe "spill.items_spilled" c.count;
  Probe.count probe "spill.bytes_written" (file_header + c.fill);
  t.resident <- t.resident - c.count;
  t.resident_bytes <- t.resident_bytes - ba_len c.buf;
  t.spilled_bytes <- t.spilled_bytes + c.fill;
  release t c.buf;
  c.buf <- ba_empty;
  c.file <- path

(* a closed chunk comes back cut to its entries: nothing is appended to it *)
let spill_in ?probe t c =
  Probe.span_begin probe "spill-io";
  let buf = read_file c.file ~count:c.count ~fill:c.fill (ba_create c.fill) in
  Probe.span_end probe "spill-io";
  Probe.count probe "spill.chunk_reads" 1;
  (try Sys.remove c.file with Sys_error _ -> ());
  c.buf <- buf;
  c.file <- "";
  t.resident <- t.resident + c.count;
  t.resident_bytes <- t.resident_bytes + ba_len buf;
  t.spilled_bytes <- t.spilled_bytes - c.fill

(* the chunk before the last has just closed *)
let spill_closed ?probe t =
  match t.disk with
  | Some d when t.resident > t.window && t.chunks >= 3 ->
    let c = nth t (t.chunks - 2) in
    if c.file = "" then spill_out ?probe t d c
  | _ -> ()

(* The chunk the next entry, [need] bytes with its header, goes into — the
   last one, or a new one when it is full — with the entry's header
   written. [commit] then counts the entry once its payload is in. *)
let reserve t ~entry ~depth need =
  if entry < 0 || depth < 0 || depth > depth_mask then
    invalid_arg
      (Printf.sprintf "Frontier.push: entry %d at depth %d out of range" entry
         depth);
  let fits =
    t.chunks > 0
    &&
    let c = nth t (t.chunks - 1) in
    c.file = "" && c.count < t.cap && c.fill + need <= ba_len c.buf
  in
  if not fits then begin
    let c = { buf = fresh_buf t need; fill = 0; count = 0; file = "" } in
    add_last t c;
    t.resident_bytes <- t.resident_bytes + ba_len c.buf
  end;
  let c = nth t (t.chunks - 1) in
  bs_set64 c.buf c.fill (Int64.of_int ((entry lsl depth_bits) lor depth));
  c

let commit ?probe t c need =
  let opened = c.count = 0 in
  c.fill <- c.fill + need;
  c.count <- c.count + 1;
  t.length <- t.length + 1;
  t.resident <- t.resident + 1;
  if opened then spill_closed ?probe t

let push_bytes ?probe t ~entry ~depth src off =
  let need = header + Marshal.total_size src off in
  let c = reserve t ~entry ~depth need in
  blit_in src off c.buf (c.fill + header) (need - header);
  commit ?probe t c need

let push ?probe t ~entry ~depth =
  push_bytes ?probe t ~entry ~depth (Fingerprint.last_marshal ()) 0

let push_state ?probe t ~entry ~depth state =
  push_bytes ?probe t ~entry ~depth
    (Marshal.to_bytes state [ Marshal.No_sharing ])
    0

let pop ?probe t =
  if t.length = 0 then None
  else begin
    let c = nth t 0 in
    if c.file <> "" then spill_in ?probe t c;
    let b = c.buf and off = t.read in
    let len = payload_size b off in
    let item = (state_at b off len, entry_at b off, depth_at b off) in
    t.read <- off + header + len;
    t.popped <- t.popped + 1;
    t.length <- t.length - 1;
    t.resident <- t.resident - 1;
    if t.popped = c.count then begin
      ignore (remove t 0);
      t.read <- 0;
      t.popped <- 0;
      t.resident_bytes <- t.resident_bytes - ba_len c.buf;
      release t c.buf
    end;
    Some item
  end

(* ---- whole chunks ------------------------------------------------------- *)

let take_chunk ?probe t ~back =
  if t.chunks = 0 then None
  else begin
    let c = remove t (if back then t.chunks - 1 else 0) in
    if c.file <> "" then spill_in ?probe t c;
    t.length <- t.length - c.count;
    t.resident <- t.resident - c.count;
    t.resident_bytes <- t.resident_bytes - ba_len c.buf;
    Some c
  end

(* unchecked, like [blit_in] *)
let blit_chunk (src : buf) soff (dst : buf) doff len =
  let i = ref 0 in
  while !i + 8 <= len do
    bs_set64 dst (doff + !i) (bs_get64 src (soff + !i));
    i := !i + 8
  done;
  while !i < len do
    Bigarray.Array1.unsafe_set dst (doff + !i)
      (Bigarray.Array1.unsafe_get src (soff + !i));
    incr i
  done

let transfer ?probe t ~into ~keep =
  let k = ref 0 in
  let rec go () =
    match take_chunk ?probe t ~back:false with
    | None -> ()
    | Some c ->
      let b = c.buf in
      walk b ~from:0 ~count:c.count (fun _ o len ->
          let entry = entry_at b o in
          if keep !k entry then begin
            let need = header + len in
            let d = reserve into ~entry ~depth:(depth_at b o) need in
            blit_chunk b (o + header) d.buf (d.fill + header) len;
            commit ?probe into d need
          end;
          incr k);
      go ()
  in
  go ()

(* ---- reading without popping -------------------------------------------- *)

(* a chunk's bytes, read back from its file into a scratch buffer when it
   is on disk *)
let bytes_of ?probe c =
  if c.file = "" then c.buf
  else begin
    Probe.count probe "spill.chunk_reads" 1;
    read_file c.file ~count:c.count ~fill:c.fill (ba_create c.fill)
  end

let iter t f =
  for i = 0 to t.chunks - 1 do
    let c = nth t i in
    let b = bytes_of c in
    let from, count =
      if i = 0 then (t.read, c.count - t.popped) else (0, c.count)
    in
    walk b ~from ~count (fun _ o _ -> f (entry_at b o) (depth_at b o))
  done

let iter_states ?probe t ~lo ~hi f =
  let base = ref 0 in
  let i = ref 0 in
  while !i < t.chunks && !base < hi do
    let c = nth t !i in
    let first = !base in
    if first + c.count > lo then begin
      let b = bytes_of ?probe c in
      walk b ~from:0 ~count:(min c.count (hi - first)) (fun k o len ->
          if first + k >= lo then
            f (first + k) (entry_at b o) (depth_at b o) (state_at b o len))
    end;
    base := first + c.count;
    incr i
  done

let close t =
  for i = 0 to t.chunks - 1 do
    let c = nth t i in
    if c.file <> "" then try Sys.remove c.file with Sys_error _ -> ()
  done;
  Array.fill t.ring 0 (Array.length t.ring) dummy;
  t.first <- 0;
  t.chunks <- 0;
  t.read <- 0;
  t.popped <- 0;
  t.length <- 0;
  t.resident <- 0;
  t.resident_bytes <- 0;
  t.spilled_bytes <- 0

let length t = t.length
let chunks t = t.chunks
let resident_bytes t = t.resident_bytes
let spilled_bytes t = t.spilled_bytes
