(* Host-side i3 client over real UDP: the wire driver of [I3.Endhost].
   Every end-host decision — retries, re-homing, rotation, refresh, the
   sender cache — is the machine's, shared with the simulator's
   [I3.Host]; this module decodes datagrams into its events, carries its
   effects to the socket (through [Faulty] when given, so chaos runs
   exercise this exact path) and turns its notes into counters. *)

type config = I3.Endhost.config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

let default_config =
  {
    refresh_period_ms = I3.Endhost.default_refresh_period_ms;
    cache_ttl_ms = 0.;
    ack_grace_ms = 30_000.;
  }

type pong = { server : int; triggers : int; uptime_ms : float }

type t = {
  udp : Udp.t;
  faulty : Faulty.t option;
  rng : Rng.t;
  clock : unit -> float;
  host : I3.Endhost.t;
  mutable on_deliver : stack:I3.Packet.stack -> payload:string -> unit;
  mutable settled : (I3.Trigger.t * [ `Acked | `Gave_up ]) option;
      (* the latest round outcome, for the blocking [insert] *)
  pongs : (int, pong option) Hashtbl.t;  (* pending ping nonce -> reply *)
  c_sends : Obs.Metrics.counter;
  c_retries : Obs.Metrics.counter;
  c_timeouts : Obs.Metrics.counter;
  c_gave_up : Obs.Metrics.counter;
  c_acks : Obs.Metrics.counter;
  c_refreshes : Obs.Metrics.counter;
  c_delivers : Obs.Metrics.counter;
  c_data : Obs.Metrics.counter;
  c_pongs_ignored : Obs.Metrics.counter;
  c_decode_errors : Obs.Metrics.counter;
}

let send_msg t ~dst m =
  let bytes = I3.Codec.encode m in
  match t.faulty with
  | Some f -> Faulty.send f ~dst bytes
  | None -> Udp.send t.udp ~dst bytes

let record t = function
  | I3.Endhost.Acked { trigger; _ } ->
      Obs.Metrics.incr t.c_acks;
      t.settled <- Some (trigger, `Acked)
  | I3.Endhost.Refresh_sent { attempt = 1; _ } -> Obs.Metrics.incr t.c_refreshes
  | I3.Endhost.Refresh_sent _ ->
      (* A retry goes out only once the previous attempt timed out. *)
      Obs.Metrics.incr t.c_timeouts;
      Obs.Metrics.incr t.c_retries
  | I3.Endhost.Rehomed _ -> ()
  | I3.Endhost.Gave_up trigger ->
      Obs.Metrics.incr t.c_gave_up;
      t.settled <- Some (trigger, `Gave_up)

(* The caller's loop paces the machine (every [poll] steps it), so its
   timer needs no clock here. *)
let step t ~now event =
  List.iter
    (function
      | I3.Endhost.Send (dst, m) ->
          (match m with
          | I3.Message.Insert _ -> Obs.Metrics.incr t.c_sends
          | _ -> ());
          send_msg t ~dst m
      | I3.Endhost.Deliver { stack; payload; trace = _ } ->
          Obs.Metrics.incr t.c_delivers;
          t.on_deliver ~stack ~payload
      | I3.Endhost.Note n -> record t n
      | I3.Endhost.Set_timer _ -> ())
    (I3.Endhost.step t.host ~now event)

let handle t ~src:_ bytes =
  match I3.Codec.decode bytes with
  | Error _ -> Obs.Metrics.incr t.c_decode_errors
  | Ok (I3.Message.Pong { nonce; server; triggers; uptime_ms }) ->
      (* Only a ping still waiting may keep its reply: a late or
         unsolicited Pong would otherwise stay in the table for good. *)
      if Hashtbl.mem t.pongs nonce then
        Hashtbl.replace t.pongs nonce (Some { server; triggers; uptime_ms })
      else Obs.Metrics.incr t.c_pongs_ignored
  | Ok m -> step t ~now:(t.clock ()) (I3.Endhost.Frame m)

let create ?(metrics = Obs.Metrics.default) ?(config = default_config)
    ?(instance = "client") ?(clock = fun () -> Unix.gettimeofday () *. 1000.)
    ?faulty ~rng ~gateways udp =
  if gateways = [] then invalid_arg "Client.create: need at least one gateway";
  let labels = [ ("instance", instance) ] in
  let c name = Obs.Metrics.counter metrics ~labels name in
  let t =
    { udp; faulty; rng; clock; settled = None; pongs = Hashtbl.create 8;
      host =
        I3.Endhost.create ~config ~rng:(Rng.split rng)
          ~addr:(Udp.local_addr udp) ~gateways ();
      on_deliver = (fun ~stack:_ ~payload:_ -> ());
      c_sends = c "client.sends"; c_retries = c "client.retries";
      c_timeouts = c "client.timeouts"; c_gave_up = c "client.gave_up";
      c_acks = c "client.acks"; c_refreshes = c "client.refreshes";
      c_delivers = c "client.delivers"; c_data = c "client.data_sent";
      c_pongs_ignored = c "client.pongs_ignored";
      c_decode_errors =
        Obs.Metrics.counter metrics
          ~labels:(labels @ [ ("proto", "i3") ])
          "wire.decode_errors" }
  in
  Udp.set_handler udp (handle t);
  t

let local_addr t = Udp.local_addr t.udp
let on_deliver t f = t.on_deliver <- f
let gateway t = I3.Endhost.gateway t.host
let triggers t = I3.Endhost.triggers t.host

(* Release due delayed datagrams, then wait for at most one datagram
   ([Udp.wait] counts a signal mid-select as an empty wait). *)
let wait t ~timeout =
  (match t.faulty with Some f -> ignore (Faulty.flush f) | None -> ());
  Udp.wait t.udp ~timeout

let maintain t = step t ~now:(t.clock ()) I3.Endhost.Tick

let poll t ~now =
  (match t.faulty with Some f -> ignore (Faulty.flush f) | None -> ());
  Udp.poll t.udp ~now;
  step t ~now I3.Endhost.Tick

(* Step the machine until [trigger]'s synchronous round settles. *)
let insert t trigger =
  t.settled <- None;
  step t ~now:(t.clock ()) (I3.Endhost.Insert { trigger; sync = true });
  let rec settle () =
    match t.settled with
    | Some (tr, outcome) when I3.Trigger.same_binding tr trigger -> outcome
    | _ ->
        ignore (wait t ~timeout:0.02);
        maintain t;
        settle ()
  in
  settle ()

let remove t trigger = step t ~now:(t.clock ()) (I3.Endhost.Remove trigger)

let send_data t ?ttl ?(trace = 0) ~stack ~payload () =
  Obs.Metrics.incr t.c_data;
  step t ~now:(t.clock ())
    (I3.Endhost.Send_packet (I3.Packet.make ?ttl ~trace ~stack ~payload ()))

let ping t ~dst ~timeout_ms =
  let nonce = Rng.bits62 t.rng land 0xff_ffff_ffff in
  Hashtbl.replace t.pongs nonce None;
  send_msg t ~dst (I3.Message.Ping { nonce });
  let deadline = t.clock () +. timeout_ms in
  (* Tight 20 ms slices keep the fault layer's delay queue draining. *)
  let rec await () =
    match Hashtbl.find t.pongs nonce with
    | Some _ as reply -> reply
    | None ->
        let left = deadline -. t.clock () in
        if left <= 0. then None
        else begin
          ignore (wait t ~timeout:(Float.min (left /. 1000.) 0.02));
          await ()
        end
  in
  let reply = await () in
  Hashtbl.remove t.pongs nonce;
  reply

(* The idle loop of an end-host that only listens. *)
let run t ~duration_ms =
  let deadline = t.clock () +. duration_ms in
  while t.clock () < deadline do
    ignore (wait t ~timeout:0.02);
    poll t ~now:(t.clock ())
  done
