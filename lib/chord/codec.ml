module L = Wire.Layout
module Io = Wire.Io

let ( let* ) = Io.( let* )

type msg = Protocol.msg

(* --- building blocks --- *)

let put_peer buf (p : Protocol.peer) =
  Buffer.add_string buf (Id.to_raw_string p.id);
  Io.put_u64 buf (Int64.of_int p.addr)

let read_peer r : (Protocol.peer, string) result =
  let* raw = Io.take r Id.byte_length "peer id" in
  let* addr = Io.u64 r "peer addr" in
  Ok { Protocol.id = Id.of_raw_string raw; addr = Int64.to_int addr }

let put_peer_opt buf = function
  | None -> Io.put_u8 buf 0
  | Some p ->
      Io.put_u8 buf 1;
      put_peer buf p

let read_peer_opt r =
  let* tag = Io.u8 r "peer option" in
  match tag with
  | 0 -> Ok None
  | 1 ->
      let* p = read_peer r in
      Ok (Some p)
  | _ -> Error "bad peer option tag"

let put_peers buf ps =
  if List.length ps > L.max_peer_list then
    invalid_arg "Chord.Codec: peer list too long";
  Io.put_u8 buf (List.length ps);
  List.iter (put_peer buf) ps

let read_peers r what =
  let* count = Io.u8 r what in
  Io.list_of r ~count ~max:L.max_peer_list what read_peer

(* --- messages --- *)

let kind_of : msg -> int = function
  | Lookup_step _ -> L.kind_lookup_step
  | Lookup_reply _ -> L.kind_lookup_reply
  | Get_state _ -> L.kind_get_state
  | State _ -> L.kind_state
  | Notify _ -> L.kind_notify

let encode (m : msg) =
  let buf = Buffer.create 64 in
  Buffer.add_char buf L.magic0;
  Buffer.add_char buf L.magic1;
  Buffer.add_char buf L.version;
  Io.put_u8 buf (kind_of m);
  (match m with
  | Lookup_step { key; token; reply_to } ->
      Buffer.add_string buf (Id.to_raw_string key);
      Io.put_u64 buf (Int64.of_int token);
      Io.put_u64 buf (Int64.of_int reply_to)
  | Lookup_reply { token; result } ->
      Io.put_u64 buf (Int64.of_int token);
      (match result with
      | Done p ->
          Io.put_u8 buf 0;
          put_peer buf p
      | Next p ->
          Io.put_u8 buf 1;
          put_peer buf p)
  | Get_state { token; reply_to } ->
      Io.put_u64 buf (Int64.of_int token);
      Io.put_u64 buf (Int64.of_int reply_to)
  | State { token; self; pred; succs } ->
      Io.put_u64 buf (Int64.of_int token);
      put_peer buf self;
      put_peer_opt buf pred;
      put_peers buf succs
  | Notify { who; chain } ->
      put_peer buf who;
      put_peers buf chain);
  Buffer.contents buf

let read_body kind r : (msg, string) result =
  if kind = L.kind_lookup_step then
    let* raw = Io.take r Id.byte_length "lookup key" in
    let* token = Io.u64 r "token" in
    let* reply_to = Io.u64 r "reply_to" in
    Ok
      (Protocol.Lookup_step
         {
           key = Id.of_raw_string raw;
           token = Int64.to_int token;
           reply_to = Int64.to_int reply_to;
         })
  else if kind = L.kind_lookup_reply then
    let* token = Io.u64 r "token" in
    let* tag = Io.u8 r "step result tag" in
    let* result =
      match tag with
      | 0 ->
          let* p = read_peer r in
          Ok (Protocol.Done p)
      | 1 ->
          let* p = read_peer r in
          Ok (Protocol.Next p)
      | _ -> Error "bad step result tag"
    in
    Ok (Protocol.Lookup_reply { token = Int64.to_int token; result })
  else if kind = L.kind_get_state then
    let* token = Io.u64 r "token" in
    let* reply_to = Io.u64 r "reply_to" in
    Ok
      (Protocol.Get_state
         { token = Int64.to_int token; reply_to = Int64.to_int reply_to })
  else if kind = L.kind_state then
    let* token = Io.u64 r "token" in
    let* self = read_peer r in
    let* pred = read_peer_opt r in
    let* succs = read_peers r "successor list" in
    Ok (Protocol.State { token = Int64.to_int token; self; pred; succs })
  else if kind = L.kind_notify then
    let* who = read_peer r in
    let* chain = read_peers r "notify chain" in
    Ok (Protocol.Notify { who; chain })
  else Error "unknown chord message kind"

let decode s =
  let r = Io.reader s in
  let* () = Io.need r L.preamble_bytes "preamble" in
  let* () = Io.expect_char r L.magic0 "magic" in
  let* () = Io.expect_char r L.magic1 "magic" in
  let* () = Io.expect_char r L.version "version" in
  let* kind = Io.u8 r "kind" in
  let* m = read_body kind r in
  let* () = Io.expect_end r in
  Ok m
