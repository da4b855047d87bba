type addr = Net.addr

type stack_entry = Sid of Id.t | Saddr of addr

let pp_entry ppf = function
  | Sid id -> Format.fprintf ppf "id:%a" Id.pp id
  | Saddr a -> Format.fprintf ppf "addr:%a" Net.pp_addr a

let entry_equal a b =
  match (a, b) with
  | Sid x, Sid y -> Id.equal x y
  | Saddr x, Saddr y -> x = y
  | Sid _, Saddr _ | Saddr _, Sid _ -> false

type stack = stack_entry list

let pp_stack ppf s =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_entry)
    s

let stack_equal a b =
  List.length a = List.length b && List.for_all2 entry_equal a b

let max_stack_depth = Wire.Layout.max_stack_depth
let default_ttl = 32
let header_bytes = Wire.Layout.header_bytes

(* A decoded packet's payload stays a borrowed slice of the receive
   buffer (the frame string the transport handed us) until something
   needs the bytes as a string — delivery to a host, usually.  A
   server-forwarded packet therefore never copies its payload: decode
   slices, encode writes the slice straight back out.  [payload_string]
   memoizes the materialization so repeated reads copy once. *)
type payload_repr = P_owned of string | P_slice of Wire.Io.view
type payload = { mutable repr : payload_repr }

let payload_of_string s = { repr = P_owned s }

type t = {
  stack : stack;
  payload : payload;
  refresh : bool;
  match_required : bool;
  sender : addr option;
  prev_trigger : (addr * Id.t) option;
  ttl : int;
  trace : int;
}

let payload_string t =
  match t.payload.repr with
  | P_owned s -> s
  | P_slice v ->
      let s = Wire.Io.view_to_string v in
      t.payload.repr <- P_owned s;
      s

let payload_length t =
  match t.payload.repr with
  | P_owned s -> String.length s
  | P_slice v -> Wire.Io.view_length v

(* Structural [=] no longer means what it used to: a decoded packet
   borrows its payload while a built one owns it, so equality must go
   through the bytes. *)
let equal a b =
  stack_equal a.stack b.stack
  && String.equal (payload_string a) (payload_string b)
  && a.refresh = b.refresh
  && a.match_required = b.match_required
  && a.sender = b.sender
  && (match (a.prev_trigger, b.prev_trigger) with
     | None, None -> true
     | Some (aa, ai), Some (ba, bi) -> aa = ba && Id.equal ai bi
     | Some _, None | None, Some _ -> false)
  && a.ttl = b.ttl
  && a.trace = b.trace

let make ?sender ?(trace = 0) ~stack ~payload () =
  if stack = [] then invalid_arg "Packet.make: empty identifier stack";
  if List.length stack > max_stack_depth then
    invalid_arg "Packet.make: identifier stack too deep";
  {
    stack;
    payload = payload_of_string payload;
    refresh = false;
    match_required = false;
    sender;
    prev_trigger = None;
    ttl = default_ttl;
    trace;
  }

(* Wire format: 48-byte common header, then body.  Every offset, flag
   bit and entry tag lives in {!Wire.Layout}; see the table there (and
   DESIGN.md §8).  Body: [32-byte prev trigger id if flagged], then the
   stack entries ([tag_sid | id32] or [tag_saddr | addr8]), then the
   payload. *)

open struct
  module L = Wire.Layout
  module Io = Wire.Io
end

let entry_wire_length = function
  | Sid _ -> L.sid_entry_bytes
  | Saddr _ -> L.saddr_entry_bytes

let stack_wire_length s =
  List.fold_left (fun acc e -> acc + entry_wire_length e) 0 s

let wire_length t =
  header_bytes
  + (match t.prev_trigger with Some _ -> Id.byte_length | None -> 0)
  + stack_wire_length t.stack
  + payload_length t

let set_addr b off a = Bytes.set_int64_be b off (Int64.of_int a)
let set_id b off id = Bytes.blit_string (Id.to_raw_string id) 0 b off Id.byte_length

(* The one stack-entry encoder: writes [e] at [pos], returns the offset
   just past it. *)
let set_entry b pos e =
  match e with
  | Sid id ->
      Bytes.set b pos L.tag_sid;
      set_id b (pos + 1) id;
      pos + L.sid_entry_bytes
  | Saddr a ->
      Bytes.set b pos L.tag_saddr;
      set_addr b (pos + 1) a;
      pos + L.saddr_entry_bytes

let set_entries b pos s = List.fold_left (set_entry b) pos s

let read_entry r =
  let tag = Io.u8 r "entry tag" in
  if tag = Char.code L.tag_sid then Sid (Io.id r "entry id")
  else if tag = Char.code L.tag_saddr then Saddr (Io.u64 r "entry addr")
  else Io.fail "unknown entry tag"

let stack_field_length s = 1 + stack_wire_length s

let set_stack b pos s =
  Bytes.set_uint8 b pos (List.length s);
  set_entries b (pos + 1) s

let put_stack buf s =
  let b = Bytes.create (stack_field_length s) in
  ignore (set_stack b 0 s);
  Buffer.add_bytes buf b

let read_stack ?(min_depth = 1) r =
  let count = Io.u8 r "stack count" in
  if count < min_depth || count > max_stack_depth then
    Io.fail "bad stack depth";
  Io.list_of r ~count ~max:max_stack_depth "stack" read_entry

let encode t =
  let b = Bytes.create (wire_length t) in
  Bytes.fill b 0 header_bytes '\x00';
  Io.set_preamble b
    ((if t.refresh then L.flag_refresh else 0)
    lor (if t.match_required then L.flag_match_required else 0)
    lor (match t.sender with Some _ -> L.flag_sender | None -> 0)
    lor match t.prev_trigger with Some _ -> L.flag_prev_trigger | None -> 0);
  Bytes.set_uint8 b L.off_stack_count (List.length t.stack);
  Bytes.set_uint8 b L.off_ttl (t.ttl land 0xff);
  Bytes.set_int32_be b L.off_payload_len (Int32.of_int (payload_length t));
  set_addr b L.off_sender (Option.value ~default:0 t.sender);
  let pos =
    match t.prev_trigger with
    | Some (a, id) ->
        set_addr b L.off_prev_addr a;
        set_id b header_bytes id;
        header_bytes + Id.byte_length
    | None -> header_bytes
  in
  set_addr b L.off_trace t.trace;
  let pos = set_entries b pos t.stack in
  (match t.payload.repr with
  | P_owned s -> Bytes.blit_string s 0 b pos (String.length s)
  | P_slice v -> Io.blit_view v b pos);
  Bytes.unsafe_to_string b

(* The header is read at its fixed offsets in [s] after one length
   check; the cursor, at offset 0 of [s], then walks the body. *)
let addr_at s off = Int64.to_int (String.get_int64_be s off)

let read_packet s r =
  Io.need r header_bytes "header";
  let flags = Io.preamble r in
  if flags >= L.first_kind then Io.fail "not a data packet";
  let count = String.get_uint8 s L.off_stack_count in
  if count < 1 || count > max_stack_depth then Io.fail "bad stack depth";
  Io.skip r (header_bytes - L.preamble_bytes) "header";
  let prev_trigger =
    if flags land L.flag_prev_trigger = 0 then None
    else Some (addr_at s L.off_prev_addr, Io.id r "prev trigger id")
  in
  let stack = Io.list_of r ~count ~max:max_stack_depth "stack" read_entry in
  let payload_len =
    Int32.to_int (String.get_int32_be s L.off_payload_len) land 0xffff_ffff
  in
  {
    stack;
    payload = { repr = P_slice (Io.take_view r payload_len "payload") };
    refresh = flags land L.flag_refresh <> 0;
    match_required = flags land L.flag_match_required <> 0;
    sender =
      (if flags land L.flag_sender = 0 then None
       else Some (addr_at s L.off_sender));
    prev_trigger;
    ttl = String.get_uint8 s L.off_ttl;
    trace = addr_at s L.off_trace;
  }

let decode s = Io.parse s (read_packet s)
