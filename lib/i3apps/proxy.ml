(* Frame layout:
   'Q' | reply private id (32) | request payload      request expecting reply
   'O' | payload                                      one-way datagram
   'R' | request token (8)  | reply payload           reply

   The reply id doubles as correlation: each request gets a token so
   multiple outstanding requests over the same reply trigger demux. *)

type t = {
  host : Transport.Host.t;
  rng : Rng.t;
  reply_id : Id.t;
  mutable next_token : int64;
  pending : (int64, string -> unit) Hashtbl.t;
  services : (string, string -> string option) Hashtbl.t;
      (* public id (raw) -> handler *)
}

let public_id ~name = Id.name_hash name

let u64_to_string v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))

let u64_of_string s =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code s.[i]))
  done;
  !acc

let dispatch t ~stack:_ ~payload =
  if String.length payload >= 1 then
    match payload.[0] with
    | 'Q' when String.length payload >= 1 + Id.byte_length + 8 ->
        let reply_to = Id.of_raw_string (String.sub payload 1 Id.byte_length) in
        let token = String.sub payload (1 + Id.byte_length) 8 in
        let body =
          String.sub payload
            (1 + Id.byte_length + 8)
            (String.length payload - 1 - Id.byte_length - 8)
        in
        (* Which service? All our exposures share this host; a request
           frame carries no service name, so try them in turn — in practice
           a host exposes one service (one proxy per server box). *)
        Hashtbl.iter
          (fun _ handler ->
            match handler body with
            | Some reply ->
                Transport.Host.send t.host reply_to ("R" ^ token ^ reply)
            | None -> ())
          t.services
    | 'O' ->
        let body = String.sub payload 1 (String.length payload - 1) in
        Hashtbl.iter (fun _ handler -> ignore (handler body)) t.services
    | 'R' when String.length payload >= 9 -> (
        let token = u64_of_string (String.sub payload 1 8) in
        let body = String.sub payload 9 (String.length payload - 9) in
        match Hashtbl.find_opt t.pending token with
        | Some cb ->
            Hashtbl.remove t.pending token;
            cb body
        | None -> ())
    | _ -> ()

let create host rng =
  let t =
    {
      host;
      rng;
      reply_id = Id.random rng;
      next_token = 0L;
      pending = Hashtbl.create 8;
      services = Hashtbl.create 4;
    }
  in
  Transport.Host.on_receive host (fun ~stack ~payload -> dispatch t ~stack ~payload);
  Transport.Host.insert_trigger host t.reply_id;
  t

let expose t ~name ~handler =
  let id = public_id ~name in
  Hashtbl.replace t.services (Id.to_raw_string id) handler;
  Transport.Host.insert_trigger t.host id

let request t ~name ~payload ~on_reply =
  t.next_token <- Int64.add t.next_token 1L;
  let token = t.next_token in
  Hashtbl.replace t.pending token on_reply;
  Transport.Host.send t.host (public_id ~name)
    ("Q" ^ Id.to_raw_string t.reply_id ^ u64_to_string token ^ payload)

let send_oneway t ~name payload =
  Transport.Host.send t.host (public_id ~name) ("O" ^ payload)
