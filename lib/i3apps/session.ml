(* Frame layout (payload bytes):
   'S' | public id (32) | initiator private id (32)        handshake request
   'A' | initiator private id (32) | responder private id (32)
   'D' | destination private id (32) | application data *)

type manager = {
  host : I3.Host.t;
  rng : Rng.t;
  sessions : (string, t) Hashtbl.t; (* local private id (raw) -> session *)
  listeners : (string, t -> unit) Hashtbl.t; (* public id (raw) -> accept *)
}

and t = {
  mgr : manager;
  local : Id.t;
  mutable peer : Id.t option;
  mutable data_cb : string -> unit;
  mutable ready_cb : (t -> unit) option;
  mutable closed : bool;
}

let is_established s = s.peer <> None && not s.closed
let on_data s f = s.data_cb <- f

let id_raw = Id.to_raw_string

let new_session mgr =
  let local = Id.random mgr.rng in
  let s =
    { mgr; local; peer = None; data_cb = (fun _ -> ()); ready_cb = None;
      closed = false }
  in
  Hashtbl.replace mgr.sessions (id_raw local) s;
  I3.Host.insert_trigger mgr.host local;
  s

let send s data =
  match s.peer with
  | None -> invalid_arg "Session.send: not established"
  | Some peer ->
      if not s.closed then
        I3.Host.send s.mgr.host peer ("D" ^ id_raw peer ^ data)

let close s =
  if not s.closed then begin
    s.closed <- true;
    Hashtbl.remove s.mgr.sessions (id_raw s.local);
    I3.Host.remove_trigger s.mgr.host s.local
  end

let take_id payload off = Id.of_raw_string (String.sub payload off Id.byte_length)

let dispatch mgr ~stack:_ ~payload =
  if String.length payload >= 1 then
    match payload.[0] with
    | 'S' when String.length payload >= 1 + (2 * Id.byte_length) -> (
        let public = take_id payload 1 in
        let initiator = take_id payload (1 + Id.byte_length) in
        match Hashtbl.find_opt mgr.listeners (id_raw public) with
        | None -> ()
        | Some accept ->
            let s = new_session mgr in
            s.peer <- Some initiator;
            I3.Host.send mgr.host initiator
              ("A" ^ id_raw initiator ^ id_raw s.local);
            accept s)
    | 'A' when String.length payload >= 1 + (2 * Id.byte_length) -> (
        let initiator = take_id payload 1 in
        let responder = take_id payload (1 + Id.byte_length) in
        match Hashtbl.find_opt mgr.sessions (id_raw initiator) with
        | Some s when s.peer = None ->
            s.peer <- Some responder;
            (match s.ready_cb with
            | Some cb ->
                s.ready_cb <- None;
                cb s
            | None -> ())
        | Some _ | None -> ())
    | 'D' when String.length payload >= 1 + Id.byte_length -> (
        let dest = take_id payload 1 in
        let body =
          String.sub payload
            (1 + Id.byte_length)
            (String.length payload - 1 - Id.byte_length)
        in
        match Hashtbl.find_opt mgr.sessions (id_raw dest) with
        | Some s when not s.closed -> s.data_cb body
        | Some _ | None -> ())
    | _ -> ()

let manager host rng =
  let mgr =
    { host; rng; sessions = Hashtbl.create 8; listeners = Hashtbl.create 4 }
  in
  I3.Host.on_receive host (fun ~stack ~payload -> dispatch mgr ~stack ~payload);
  mgr

let listen mgr ~public ~on_accept =
  Hashtbl.replace mgr.listeners (id_raw public) on_accept;
  I3.Host.insert_trigger mgr.host public

let connect mgr ~public ~on_ready =
  let s = new_session mgr in
  s.ready_cb <- Some on_ready;
  I3.Host.send mgr.host public ("S" ^ id_raw public ^ id_raw s.local)
