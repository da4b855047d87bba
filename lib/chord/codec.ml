module L = Wire.Layout
module Io = Wire.Io

type msg = Protocol.msg

(* --- building blocks --- *)

let put_peer buf (p : Protocol.peer) =
  Io.put_id buf p.id;
  Io.put_u64 buf p.addr

let read_peer r : Protocol.peer =
  let id = Io.id r "peer id" in
  { id; addr = Io.u64 r "peer addr" }

let put_peer_opt buf = function
  | None -> Io.put_u8 buf 0
  | Some p ->
      Io.put_u8 buf 1;
      put_peer buf p

let read_peer_opt r =
  match Io.u8 r "peer option" with
  | 0 -> None
  | 1 -> Some (read_peer r)
  | _ -> Io.fail "bad peer option tag"

let put_peers buf ps =
  if List.length ps > L.max_peer_list then
    invalid_arg "Chord.Codec: peer list too long";
  Io.put_u8 buf (List.length ps);
  List.iter (put_peer buf) ps

let read_peers r what =
  Io.list_of r ~count:(Io.u8 r what) ~max:L.max_peer_list what read_peer

(* --- messages --- *)

let kind_of : msg -> int = function
  | Lookup_step _ -> L.kind_lookup_step
  | Lookup_reply _ -> L.kind_lookup_reply
  | Get_state _ -> L.kind_get_state
  | State _ -> L.kind_state
  | Notify _ -> L.kind_notify

let encode (m : msg) =
  let buf = Buffer.create 64 in
  Io.put_preamble buf (kind_of m);
  (match m with
  | Lookup_step { key; token; reply_to } ->
      Io.put_id buf key;
      Io.put_u64 buf token;
      Io.put_u64 buf reply_to
  | Lookup_reply { token; result } ->
      Io.put_u64 buf token;
      (match result with
      | Done p ->
          Io.put_u8 buf 0;
          put_peer buf p
      | Next p ->
          Io.put_u8 buf 1;
          put_peer buf p)
  | Get_state { token; reply_to } ->
      Io.put_u64 buf token;
      Io.put_u64 buf reply_to
  | State { token; self; pred; succs } ->
      Io.put_u64 buf token;
      put_peer buf self;
      put_peer_opt buf pred;
      put_peers buf succs
  | Notify { who; chain } ->
      put_peer buf who;
      put_peers buf chain);
  Buffer.contents buf

let read_body kind r : msg =
  if kind = L.kind_lookup_step then
    let key = Io.id r "lookup key" in
    let token = Io.u64 r "token" in
    Lookup_step { key; token; reply_to = Io.u64 r "reply_to" }
  else if kind = L.kind_lookup_reply then
    let token = Io.u64 r "token" in
    let result =
      match Io.u8 r "step result tag" with
      | 0 -> Protocol.Done (read_peer r)
      | 1 -> Protocol.Next (read_peer r)
      | _ -> Io.fail "bad step result tag"
    in
    Lookup_reply { token; result }
  else if kind = L.kind_get_state then
    let token = Io.u64 r "token" in
    Get_state { token; reply_to = Io.u64 r "reply_to" }
  else if kind = L.kind_state then
    let token = Io.u64 r "token" in
    let self = read_peer r in
    let pred = read_peer_opt r in
    State { token; self; pred; succs = read_peers r "successor list" }
  else if kind = L.kind_notify then
    let who = read_peer r in
    Notify { who; chain = read_peers r "notify chain" }
  else Io.fail "unknown chord message kind"

let decode s = Io.parse s (fun r -> read_body (Io.preamble r) r)
