(* Bounds-checked binary reader/writer shared by every codec.

   Writers append to a [Buffer.t].  Readers are cursors over an
   immutable string that raise [Malformed] on the first bad field and
   never read past the end of the input, whatever bytes arrive — the
   mutation fuzzer in [test/test_wire.ml] holds them to that.  [parse]
   is the one place that catches [Malformed], so a decoder is
   straight-line reads. *)

exception Malformed of string

let fail what = raise (Malformed what)

(* --- writing --- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)
let put_id buf id = Buffer.add_string buf (Id.to_raw_string id)

let put_str16 buf s =
  if String.length s > 0xffff then invalid_arg "Wire.Io.put_str16: too long";
  put_u16 buf (String.length s);
  Buffer.add_string buf s

let put_str32 buf s =
  (* The u32 prefix could technically carry 4 GiB, but nothing legal
     can: every frame must fit one UDP datagram, so anything beyond the
     datagram-derived payload cap is an encoder bug — reject it like
     [put_str16] does instead of silently truncating the length prefix
     on 64-bit. *)
  if String.length s > Layout.max_data_payload then
    invalid_arg "Wire.Io.put_str32: too long";
  put_u32 buf (String.length s);
  Buffer.add_string buf s

(* The 4-byte preamble every frame opens with — magic "i3", version,
   then a control kind or a data packet's flags — as one big-endian
   word, so the Buffer and the Bytes writers below and [preamble] share
   one definition. *)
let preamble_word kind =
  (Char.code Layout.magic0 lsl 24)
  lor (Char.code Layout.magic1 lsl 16)
  lor (Char.code Layout.version lsl 8)
  lor kind

let put_preamble buf kind = put_u32 buf (preamble_word kind)

let set_preamble b kind =
  Bytes.set_int32_be b Layout.off_magic (Int32.of_int (preamble_word kind))

(* --- reading --- *)

(* [limit] (≤ length of [src]) bounds the cursor instead of the string
   end so a sub-reader can expose a slice of the receive buffer — the
   zero-copy path — while keeping every bounds check identical. *)
type reader = { src : string; mutable pos : int; limit : int }

let parse s f =
  let r = { src = s; pos = 0; limit = String.length s } in
  match f r with
  | v -> if r.pos = r.limit then Ok v else Error "trailing bytes"
  | exception Malformed e -> Error e

(* A borrowed slice of a reader's backing buffer: what [take_view]
   returns instead of copying.  Materialize with [view_to_string] or
   copy straight out of it with [blit_view]. *)
type view = { base : string; off : int; len : int }

let view_length v = v.len
let view_to_string v =
  if v.off = 0 && v.len = String.length v.base then v.base
  else String.sub v.base v.off v.len

let blit_view v b off = Bytes.blit_string v.base v.off b off v.len

let need r n what = if r.limit - r.pos < n then fail ("truncated " ^ what)

let skip r n what =
  need r n what;
  r.pos <- r.pos + n

(* Every fixed-width read checks [limit] through [need] first:
   [String.get_*] alone would only stop at the end of [src]. *)
let u8 r what =
  need r 1 what;
  let v = String.get_uint8 r.src r.pos in
  r.pos <- r.pos + 1;
  v

let u16 r what =
  need r 2 what;
  let v = String.get_uint16_be r.src r.pos in
  r.pos <- r.pos + 2;
  v

let u32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_be r.src r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let u64 r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_be r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let f64 r what =
  need r 8 what;
  let v = Int64.float_of_bits (String.get_int64_be r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let preamble r =
  let w = u32 r "preamble" in
  if w lsr 16 <> preamble_word 0 lsr 16 then fail "bad magic";
  if (w lsr 8) land 0xff <> Char.code Layout.version then fail "bad version";
  w land 0xff

(* Zero-copy [take]: consume [n] bytes but hand back a borrowed slice of
   the backing buffer instead of a fresh string. *)
let take_view r n what =
  if n < 0 then fail ("negative length for " ^ what);
  need r n what;
  let v = { base = r.src; off = r.pos; len = n } in
  r.pos <- r.pos + n;
  v

let take r n what = view_to_string (take_view r n what)

(* Zero-copy sub-reader: run [f] over the next [n] bytes through a
   cursor bounded to exactly that range of the same backing buffer, for
   decoding an embedded length-prefixed blob without materializing it;
   [f] must consume all of it. *)
let sub r n what f =
  let v = take_view r n what in
  let sr = { src = v.base; pos = v.off; limit = v.off + v.len } in
  let x = f sr in
  if sr.pos <> sr.limit then fail "trailing bytes";
  x

let id r what = Id.of_raw_string (take r Id.byte_length what)
let str16 r what = take r (u16 r what) what
let str32 r what = take r (u32 r what) what

(* [list_of r ~count ~max what f] reads [count] consecutive [f]-decoded
   elements, refusing counts beyond [max] so a corrupted length field
   fails fast instead of looping over garbage. *)
let list_of r ~count ~max what f =
  if count < 0 || count > max then fail ("bad count for " ^ what);
  List.init count (fun _ -> f r)
