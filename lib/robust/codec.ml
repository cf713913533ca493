open Rfid_geom
open Rfid_model
module E = Rfid_core.Engine
module FF = Rfid_core.Factored_filter

let magic = "RCOD"
let version = 3

(* Adler-32 (RFC 1950), hand-rolled so the format needs no zlib
   binding. Deferring the modulo amortizes it: 5552 is the largest
   block for which the 32-bit-safe bound holds (zlib's NMAX). *)
let adler32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.adler32";
  let base = 65521 in
  let a = ref 1 and b = ref 0 in
  let i = ref pos in
  let stop = pos + len in
  while !i < stop do
    let block_end = min stop (!i + 5552) in
    while !i < block_end do
      a := !a + Char.code (String.unsafe_get s !i);
      b := !b + !a;
      incr i
    done;
    a := !a mod base;
    b := !b mod base
  done;
  (!b lsl 16) lor !a

module Prim = struct
  exception Corrupt of int * string

  let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
  let add_i64 b v = Buffer.add_int64_le b v
  let add_int b v = Buffer.add_int64_le b (Int64.of_int v)
  let add_f b v = Buffer.add_int64_le b (Int64.bits_of_float v)
  let add_bool b v = add_u8 b (if v then 1 else 0)

  let add_vec3 b (v : Vec3.t) =
    add_f b v.Vec3.x;
    add_f b v.Vec3.y;
    add_f b v.Vec3.z

  let add_tag b = function
    | Types.Object_tag id ->
        add_u8 b 0;
        add_int b id
    | Types.Shelf_tag id ->
        add_u8 b 1;
        add_int b id

  let add_opt add b = function
    | None -> add_bool b false
    | Some v ->
        add_bool b true;
        add b v

  let add_list add b l =
    add_int b (List.length l);
    List.iter (add b) l

  let add_array add b a =
    add_int b (Array.length a);
    Array.iter (add b) a

  type cursor = { data : string; limit : int; mutable pos : int }

  let cursor ?(pos = 0) ?len data =
    let limit = match len with Some l -> pos + l | None -> String.length data in
    if pos < 0 || limit > String.length data || pos > limit then
      invalid_arg "Codec.Prim.cursor";
    { data; limit; pos }

  let pos c = c.pos
  let remaining c = c.limit - c.pos
  let corrupt c msg = raise (Corrupt (c.pos, msg))

  let need c n =
    if c.limit - c.pos < n then
      corrupt c (Printf.sprintf "truncated: need %d bytes, have %d" n (remaining c))

  let r_u8 c =
    need c 1;
    let v = Char.code (String.unsafe_get c.data c.pos) in
    c.pos <- c.pos + 1;
    v

  let r_i64 c =
    need c 8;
    let v = String.get_int64_le c.data c.pos in
    c.pos <- c.pos + 8;
    v

  let r_int c =
    let v = r_i64 c in
    let n = Int64.to_int v in
    if Int64.of_int n <> v then
      corrupt c (Printf.sprintf "integer %Ld out of native range" v);
    n

  let r_f c = Int64.float_of_bits (r_i64 c)

  let r_bool c =
    match r_u8 c with
    | 0 -> false
    | 1 -> true
    | v -> corrupt c (Printf.sprintf "non-canonical boolean byte %d" v)

  let r_vec3 c =
    let x = r_f c in
    let y = r_f c in
    let z = r_f c in
    Vec3.make x y z

  let r_tag c =
    match r_u8 c with
    | 0 -> Types.Object_tag (r_int c)
    | 1 -> Types.Shelf_tag (r_int c)
    | v -> corrupt c (Printf.sprintf "unknown tag kind %d" v)

  let r_len c ~elem_bytes =
    let n = r_int c in
    if n < 0 then corrupt c (Printf.sprintf "negative length %d" n);
    if n > remaining c / max 1 elem_bytes then
      corrupt c
        (Printf.sprintf "implausible length %d (%d bytes remain)" n (remaining c));
    n

  let r_opt r c = if r_bool c then Some (r c) else None

  let r_list ?(elem_bytes = 1) r c =
    let n = r_len c ~elem_bytes in
    List.init n (fun _ -> r c)

  let r_array ?(elem_bytes = 1) ~dummy r c =
    let n = r_len c ~elem_bytes in
    let a = Array.make n dummy in
    for i = 0 to n - 1 do
      a.(i) <- r c
    done;
    a
end

open Prim

(* ------------------------------------------------------------------ *)
(* Composite writers/readers shared by both snapshot kinds.            *)

let add_reader_state b (r : Reader_state.t) =
  add_vec3 b r.Reader_state.loc;
  add_f b r.Reader_state.heading

let r_reader_state c =
  let loc = r_vec3 c in
  let heading = r_f c in
  Reader_state.make ~loc ~heading

let add_box2 b (box : Box2.t) =
  add_f b box.Box2.min_x;
  add_f b box.Box2.min_y;
  add_f b box.Box2.max_x;
  add_f b box.Box2.max_y

let r_box2 c =
  let at = pos c in
  let min_x = r_f c in
  let min_y = r_f c in
  let max_x = r_f c in
  let max_y = r_f c in
  (* Box2.make enforces finiteness and min <= max; a failure here means
     checksummed-but-nonsensical data, which only a codec bug (or a
     deliberately forged file) can produce — fail cleanly either way. *)
  try Box2.make ~min_x ~min_y ~max_x ~max_y
  with Invalid_argument m -> raise (Corrupt (at, "invalid box: " ^ m))

let add_int_pair b (x, y) =
  add_int b x;
  add_int b y

let r_int_pair c =
  let x = r_int c in
  let y = r_int c in
  (x, y)

let add_floats b (a : float array) = add_array add_f b a
let r_floats c = r_array ~elem_bytes:8 ~dummy:0. r_f c

let add_mat b (m : Rfid_prob.Linalg.mat) = add_array add_floats b m
let r_mat c = r_array ~elem_bytes:8 ~dummy:[||] r_floats c

(* ------------------------------------------------------------------ *)
(* Section framing.

   section := u8 name_len, name, i64 body_len, body, u32 adler32(body)

   Sections appear in a fixed order per snapshot kind; the decoder
   checks the name, the length, and the checksum before interpreting a
   single body byte, so every error message can say which logical part
   of the snapshot went bad and where. *)

let add_section buf name body =
  add_u8 buf (String.length name);
  Buffer.add_string buf name;
  add_int buf (String.length body);
  Buffer.add_string buf body;
  Buffer.add_int32_le buf (Int32.of_int (adler32 body))

let section_error name at msg =
  Error (Printf.sprintf "codec: section %S at offset %d: %s" name at msg)

(* Open the named section in [c]: verify name, length and checksum,
   and return a sub-cursor over the body. [track] records which section
   the decoder is in, so a [Corrupt] raised anywhere inside the body
   readers gets attributed to it in the final error message. *)
let enter_section track c name =
  track := name;
  let at = pos c in
  let n = r_u8 c in
  let got =
    if remaining c < n then corrupt c "truncated section name"
    else begin
      let s = String.sub c.data c.pos n in
      c.pos <- c.pos + n;
      s
    end
  in
  if got <> name then
    raise
      (Corrupt (at, Printf.sprintf "expected section %S, found %S" name got));
  let body_len = r_int c in
  if body_len < 0 || body_len > remaining c - 4 then
    corrupt c (Printf.sprintf "implausible section body length %d" body_len);
  let body_start = pos c in
  c.pos <- c.pos + body_len;
  need c 4;
  let stored = Int32.to_int (String.get_int32_le c.data c.pos) land 0xffffffff in
  c.pos <- c.pos + 4;
  let actual = adler32 ~pos:body_start ~len:body_len c.data in
  if stored <> actual then
    raise
      (Corrupt
         ( body_start,
           Printf.sprintf "checksum mismatch (stored %08x, computed %08x)" stored
             actual ));
  cursor ~pos:body_start ~len:body_len c.data

(* ------------------------------------------------------------------ *)
(* Factored filter snapshot.                                           *)

let add_belief b = function
  | FF.Snap_active parts ->
      add_u8 b 0;
      add_array
        (fun b (loc, reader_idx, log_w) ->
          add_vec3 b loc;
          add_int b reader_idx;
          add_f b log_w)
        b parts
  | FF.Snap_compressed (mean, cov) ->
      add_u8 b 1;
      add_floats b mean;
      add_mat b cov

let r_belief c =
  match r_u8 c with
  | 0 ->
      FF.Snap_active
        (r_array ~elem_bytes:40 ~dummy:(Vec3.zero, 0, 0.)
           (fun c ->
             let loc = r_vec3 c in
             let reader_idx = r_int c in
             let log_w = r_f c in
             (loc, reader_idx, log_w))
           c)
  | 1 ->
      let mean = r_floats c in
      let cov = r_mat c in
      FF.Snap_compressed (mean, cov)
  | v -> raise (Corrupt (pos c - 1, Printf.sprintf "unknown belief kind %d" v))

let add_obj b (o : FF.obj_snapshot) =
  add_int b o.FF.so_id;
  add_belief b o.FF.so_belief;
  add_int b o.FF.so_reader_gen;
  add_int b o.FF.so_last_read;
  add_vec3 b o.FF.so_last_read_reader

let r_obj c =
  let so_id = r_int c in
  let so_belief = r_belief c in
  let so_reader_gen = r_int c in
  let so_last_read = r_int c in
  let so_last_read_reader = r_vec3 c in
  { FF.so_id; so_belief; so_reader_gen; so_last_read; so_last_read_reader }

let add_index b (si : FF.index_snapshot) =
  add_list
    (fun b (box, ids) ->
      add_box2 b box;
      add_list add_int b ids)
    b si.FF.si_entries;
  add_list add_int b si.FF.si_pending_objs;
  add_opt add_box2 b si.FF.si_pending_box;
  add_opt add_vec3 b si.FF.si_last_insert_loc

let r_index c =
  let si_entries =
    r_list ~elem_bytes:40
      (fun c ->
        let box = r_box2 c in
        let ids = r_list ~elem_bytes:8 r_int c in
        (box, ids))
      c
  in
  let si_pending_objs = r_list ~elem_bytes:8 r_int c in
  let si_pending_box = r_opt r_box2 c in
  let si_last_insert_loc = r_opt r_vec3 c in
  { FF.si_entries; si_pending_objs; si_pending_box; si_last_insert_loc }

let encode_factored buf (s : FF.snapshot) =
  let body = Buffer.create 256 in
  let take () =
    let r = Buffer.contents body in
    Buffer.clear body;
    r
  in
  add_int body s.FF.fs_reader_gen;
  add_int body s.FF.fs_epoch;
  add_opt add_vec3 body s.FF.fs_last_reported;
  add_list add_int body s.FF.fs_newly_seen;
  add_int body s.FF.fs_processed_last;
  add_int body s.FF.fs_consecutive_degraded;
  add_int body s.FF.fs_degraded_total;
  add_section buf "meta" (take ());
  add_i64 body s.FF.fs_rng;
  add_i64 body s.FF.fs_substream;
  add_section buf "rng" (take ());
  add_array
    (fun b (state, log_w) ->
      add_reader_state b state;
      add_f b log_w)
    body s.FF.fs_readers;
  add_section buf "readers" (take ());
  add_list add_obj body s.FF.fs_objects;
  add_section buf "objects" (take ());
  add_opt add_index body s.FF.fs_index;
  add_section buf "index" (take ());
  add_list add_int_pair body s.FF.fs_compress_queue;
  add_section buf "queues" (take ())

let decode_factored track c : FF.snapshot =
  let meta = enter_section track c "meta" in
  let fs_reader_gen = r_int meta in
  let fs_epoch = r_int meta in
  let fs_last_reported = r_opt r_vec3 meta in
  let fs_newly_seen = r_list ~elem_bytes:8 r_int meta in
  let fs_processed_last = r_int meta in
  let fs_consecutive_degraded = r_int meta in
  let fs_degraded_total = r_int meta in
  let rng = enter_section track c "rng" in
  let fs_rng = r_i64 rng in
  let fs_substream = r_i64 rng in
  let readers = enter_section track c "readers" in
  let fs_readers =
    r_array ~elem_bytes:40
      ~dummy:(Reader_state.make ~loc:Vec3.zero ~heading:0., 0.)
      (fun c ->
        let state = r_reader_state c in
        let log_w = r_f c in
        (state, log_w))
      readers
  in
  let objects = enter_section track c "objects" in
  let fs_objects = r_list ~elem_bytes:57 r_obj objects in
  let index = enter_section track c "index" in
  let fs_index = r_opt r_index index in
  let queues = enter_section track c "queues" in
  let fs_compress_queue = r_list ~elem_bytes:16 r_int_pair queues in
  {
    FF.fs_rng;
    fs_substream;
    fs_reader_gen;
    fs_readers;
    fs_objects;
    fs_index;
    fs_compress_queue;
    fs_last_reported;
    fs_epoch;
    fs_newly_seen;
    fs_processed_last;
    fs_consecutive_degraded;
    fs_degraded_total;
  }

(* ------------------------------------------------------------------ *)
(* Engine envelope (tail section) and the public entry points.         *)

let encode_engine_section buf (s : E.snapshot) =
  let body = Buffer.create 64 in
  add_list add_int_pair body s.E.es_pending;
  add_list add_int body s.E.es_scheduled;
  add_int body s.E.es_degraded_run;
  add_int body s.E.es_degraded_event_count;
  add_section buf "engine" (Buffer.contents body)

let decode_engine_section track c es_filter =
  let eng = enter_section track c "engine" in
  let es_pending = r_list ~elem_bytes:16 r_int_pair eng in
  let es_scheduled = r_list ~elem_bytes:8 r_int eng in
  let es_degraded_run = r_int eng in
  let es_degraded_event_count = r_int eng in
  { E.es_filter; es_pending; es_scheduled; es_degraded_run; es_degraded_event_count }

let encode (s : E.snapshot) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  add_u8 buf version;
  encode_factored buf s.E.es_filter;
  encode_engine_section buf s;
  Buffer.contents buf

let decode data =
  let c = cursor data in
  let current = ref "header" in
  try
    if remaining c < 4 || String.sub data 0 4 <> magic then
      Error "codec: bad magic (not an RCOD snapshot)"
    else begin
      c.pos <- 4;
      let v = r_u8 c in
      if v <> version then
        Error
          (Printf.sprintf "codec: unsupported version %d (this build reads v%d)"
             v version)
      else begin
        let fs = decode_factored current c in
        let snapshot = decode_engine_section current c fs in
        if remaining c <> 0 then
          Error
            (Printf.sprintf "codec: %d trailing bytes after the last section"
               (remaining c))
        else Ok snapshot
      end
    end
  with
  | Corrupt (at, msg) -> section_error !current at msg
  | Invalid_argument msg | Failure msg ->
      section_error !current (pos c) ("unexpected: " ^ msg)
