(* Bounds-checked binary reader/writer shared by every codec.

   Writers append to a [Buffer.t]; readers are [result]-typed cursors
   over an immutable string and must never raise and never read past the
   end of the input, whatever bytes arrive — the mutation fuzzer in
   [test/test_wire.ml] holds them to that. *)

let ( let* ) = Result.bind

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

let put_u64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let put_f64 buf v = put_u64 buf (Int64.bits_of_float v)

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

(* --- reading --- *)

(* [limit] (≤ length of [src]) bounds the cursor instead of the string
   end so a sub-reader can expose a slice of the receive buffer — the
   zero-copy path — while keeping every bounds check identical. *)
type reader = { src : string; mutable pos : int; limit : int }

let reader src = { src; pos = 0; limit = String.length src }
let pos r = r.pos
let remaining r = r.limit - r.pos

(* A borrowed slice of a reader's backing buffer: what [take_view]
   returns instead of copying.  Materialize with [view_to_string] or
   write straight out of it with [add_view]. *)
type view = { base : string; off : int; len : int }

let view_length v = v.len
let view_to_string v =
  if v.off = 0 && v.len = String.length v.base then v.base
  else String.sub v.base v.off v.len

let add_view buf v = Buffer.add_substring buf v.base v.off v.len

let need r n what =
  if remaining r >= n then Ok () else Error ("truncated " ^ what)

let u8 r what =
  let* () = need r 1 what in
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  Ok v

let u16 r what =
  let* () = need r 2 what in
  let v = (Char.code r.src.[r.pos] lsl 8) lor Char.code r.src.[r.pos + 1] in
  r.pos <- r.pos + 2;
  Ok v

let u32 r what =
  let* () = need r 4 what in
  let p = r.pos in
  let v =
    (Char.code r.src.[p] lsl 24)
    lor (Char.code r.src.[p + 1] lsl 16)
    lor (Char.code r.src.[p + 2] lsl 8)
    lor Char.code r.src.[p + 3]
  in
  r.pos <- p + 4;
  Ok v

let u64 r what =
  let* () = need r 8 what in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc :=
      Int64.logor (Int64.shift_left !acc 8)
        (Int64.of_int (Char.code r.src.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  Ok !acc

let f64 r what =
  let* bits = u64 r what in
  Ok (Int64.float_of_bits bits)

let take r n what =
  if n < 0 then Error ("negative length for " ^ what)
  else
    let* () = need r n what in
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    Ok s

(* Zero-copy [take]: consume [n] bytes but hand back a borrowed slice of
   the backing buffer instead of a fresh string. *)
let take_view r n what =
  if n < 0 then Error ("negative length for " ^ what)
  else
    let* () = need r n what in
    let v = { base = r.src; off = r.pos; len = n } in
    r.pos <- r.pos + n;
    Ok v

(* Zero-copy sub-reader: consume [n] bytes and return a fresh cursor
   bounded to exactly that range of the same backing buffer, for
   decoding an embedded length-prefixed blob without materializing it. *)
let sub_reader r n what =
  let* v = take_view r n what in
  Ok { src = v.base; pos = v.off; limit = v.off + v.len }

let str16 r what =
  let* n = u16 r what in
  take r n what

let str32 r what =
  let* n = u32 r what in
  take r n what

let expect_char r c what =
  let* v = u8 r what in
  if v = Char.code c then Ok () else Error ("bad " ^ what)

let expect_end r =
  if remaining r = 0 then Ok () else Error "trailing bytes"

(* [list_of r ~count ~max what f] reads [count] consecutive [f]-decoded
   elements, refusing counts beyond [max] so a corrupted length field
   fails fast instead of looping over garbage. *)
let list_of r ~count ~max what f =
  if count < 0 || count > max then Error ("bad count for " ^ what)
  else
    let rec go k acc =
      if k = 0 then Ok (List.rev acc)
      else
        let* x = f r in
        go (k - 1) (x :: acc)
    in
    go count []
