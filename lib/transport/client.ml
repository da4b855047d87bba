(* Host-side i3 client over real UDP: [Host], the one driver of
   [I3.Endhost], on a socket (through [Faulty] when given, so chaos runs
   exercise this exact path).  What is left here needs the socket and a
   blocking loop: pings and their Pong table, the blocking insert, and
   the wait/poll loop that paces the machine. *)

(* Two fields differ from the simulator's.  The cache is off, so every
   packet and insert crosses the gateway: the live telemetry test
   (test_scrape) needs a default-config probe to cross the whole chain
   of daemons it names, and with the cache on the insert ack caches the
   chain's first daemon.  Why the grace is 30 s rather than 90 s is
   unknown: the value arrived with the end-host machine, and the wire
   client before it had no grace (it rotated its gateway on a give-up). *)
let default_config =
  { Host.default_config with cache_ttl_ms = 0.; ack_grace_ms = 30_000. }

type pong = { server : int; triggers : int; uptime_ms : float }

type t = {
  host : Host.t;
  udp : Udp.t;
  faulty : Faulty.t option;
  rng : Rng.t;
  mutable settled : (I3.Trigger.t * [ `Acked | `Gave_up ]) option;
      (* the latest round outcome, for the blocking [insert] *)
  pongs : (int, pong option) Hashtbl.t;  (* pending ping nonce -> reply *)
  c_pongs_ignored : Obs.Metrics.counter;
}

let handle t ~src:_ bytes =
  match Host.decode t.host bytes with
  | None -> ()
  | Some (I3.Message.Pong { nonce; server; triggers; uptime_ms }) ->
      (* Only a ping still waiting may keep its reply: a late or
         unsolicited Pong would otherwise stay in the table for good. *)
      if Hashtbl.mem t.pongs nonce then
        Hashtbl.replace t.pongs nonce (Some { server; triggers; uptime_ms })
      else Obs.Metrics.incr t.c_pongs_ignored
  | Some m -> Host.step t.host ~now:(Host.now t.host) (I3.Endhost.Frame m)

let create ?(metrics = Obs.Metrics.default) ?(config = default_config)
    ?(instance = "client") ?(clock = fun () -> Unix.gettimeofday () *. 1000.)
    ?faulty ~rng ~gateways udp =
  let send dst =
    match faulty with Some f -> Faulty.send f ~dst | None -> Udp.send udp ~dst
  in
  let host =
    Host.over ~send ~clock ~addr:(Udp.local_addr udp) ~metrics ~instance
      ~rng ~gateways config
  in
  let t =
    { host; udp; faulty; rng; settled = None; pongs = Hashtbl.create 8;
      c_pongs_ignored =
        Obs.Metrics.counter metrics ~labels:[ ("instance", instance) ]
          "client.pongs_ignored" }
  in
  Host.on_note host (function
    | I3.Endhost.Acked { trigger; _ } -> t.settled <- Some (trigger, `Acked)
    | I3.Endhost.Gave_up trigger -> t.settled <- Some (trigger, `Gave_up)
    | I3.Endhost.Refresh_sent _ | I3.Endhost.Rehomed _ -> ());
  Udp.set_handler udp (handle t);
  t

let host t = t.host

(* Release due delayed datagrams, then wait for at most one datagram
   ([Udp.wait] counts a signal mid-select as an empty wait). *)
let wait t ~timeout =
  (match t.faulty with Some f -> ignore (Faulty.flush f) | None -> ());
  Udp.wait t.udp ~timeout

let maintain t = Host.step t.host ~now:(Host.now t.host) I3.Endhost.Tick

let poll t ~now =
  (match t.faulty with Some f -> ignore (Faulty.flush f) | None -> ());
  Udp.poll t.udp ~now;
  Host.step t.host ~now I3.Endhost.Tick

(* Step the machine until [trigger]'s synchronous round settles. *)
let insert t trigger =
  t.settled <- None;
  Host.step t.host ~now:(Host.now t.host)
    (I3.Endhost.Insert { trigger; sync = true });
  let rec settle () =
    match t.settled with
    | Some (tr, outcome) when I3.Trigger.same_binding tr trigger -> outcome
    | _ ->
        ignore (wait t ~timeout:0.02);
        maintain t;
        settle ()
  in
  settle ()

let ping t ~dst ~timeout_ms =
  let nonce = Rng.bits62 t.rng land 0xff_ffff_ffff in
  Hashtbl.replace t.pongs nonce None;
  Host.send_message t.host ~dst (I3.Message.Ping { nonce });
  let deadline = Host.now t.host +. timeout_ms in
  (* Tight 20 ms slices keep the fault layer's delay queue draining. *)
  let rec await () =
    match Hashtbl.find t.pongs nonce with
    | Some _ as reply -> reply
    | None ->
        let left = deadline -. Host.now t.host in
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
  let deadline = Host.now t.host +. duration_ms in
  while Host.now t.host < deadline do
    ignore (wait t ~timeout:0.02);
    poll t ~now:(Host.now t.host)
  done
