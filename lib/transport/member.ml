(* One simulated i3 server, run as [bin/i3d] runs it: an [I3.Engine]
   behind a [Driver] on one [Transport.Sim] endpoint, with one pending
   scheduler ([Engine]) wake-up at the driver's next deadline.  Every
   [Dynamic] (live Chord) and [Deployment] (static ring) member is one. *)

type world = {
  engine : Engine.t;
  net : string Net.t;
  rng : Rng.t;
  server_config : I3.Server.config option;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  spans : Obs.Trace.t;
}

type t = {
  w : world;
  endpoint : Sim_endpoint.t;  (* its [live] flag is the member's *)
  mutable driver : Driver.t;  (* a fresh engine and driver on every restart *)
}

(* Without a topology model, endpoints on one site talk at 0 ms and
   distinct sites at 5 ms. *)
let flat_latency a b = if a = b then 0. else 5.

(* A seeded scheduler and byte net; with a live [tracer], a traced i3
   frame records [Enqueue] when sent and [Drop "net:<cause>"] when the
   fault model eats it in flight. *)
let world ~seed ~latency ?server_config ~metrics ~tracer ~spans () =
  let rng = Rng.of_int seed in
  let engine = Engine.create () in
  let net = Net.create ~metrics engine ~rng:(Rng.split rng) ~latency () in
  if Obs.Trace.enabled tracer then
    Net.set_observer net (fun ~src ~dst:_ bytes outcome ->
        match Result.map I3.Message.trace_of (I3.Codec.decode bytes) with
        | Ok None | Error _ -> ()
        | Ok (Some trace) ->
            let time = Engine.now engine and site = Net.site net src in
            Obs.Trace.record tracer trace ~time ~site
              (match outcome with
              | `Enqueue -> Obs.Trace.Enqueue
              | `Drop cause -> Obs.Trace.Drop ("net:" ^ cause)));
  { engine; net; rng; server_config; metrics; tracer; spans }

let addr m = Sim_endpoint.local_addr m.endpoint
let alive m = m.endpoint.live
let node m = Driver.engine m.driver
let server m = I3.Engine.server (node m)
let now m = Engine.now m.w.engine

(* After each driver step, keep one scheduler wake-up at the deadline
   the step announced. *)
let arm m =
  Sim_endpoint.arm m.endpoint
    ~next_due:(fun () -> Driver.next_due m.driver)
    ~tick:(fun ~now -> Driver.tick m.driver ~now)

(* The driver carries the server's [instance] label, so a kill removes
   the driver's series with the server's. *)
let driver w endpoint node =
  Driver.create ~metrics:w.metrics
    ~instance:(I3.Server.instance_label (I3.Engine.server node))
    ~send:
      (List.iter (fun (dst, bytes) -> Sim_endpoint.send endpoint ~dst bytes))
    node

(* The first tick starts the new engine's clock and timers now. *)
let start m =
  m.endpoint.live <- true;
  m.endpoint.wake <- None;
  Driver.tick m.driver ~now:(now m);
  arm m

(* A running member at a fresh endpoint on [site]; [spawn] builds its
   engine from the endpoint's address. *)
let create w ~site spawn =
  let endpoint = Sim_endpoint.attach w.net ~site in
  let driver = driver w endpoint (spawn (Sim_endpoint.local_addr endpoint)) in
  let m = { w; endpoint; driver } in
  Sim_endpoint.set_handler endpoint (fun ~src bytes ->
      Driver.on_datagrams m.driver ~now:(now m) [ (src, bytes) ];
      arm m);
  start m;
  m

(* A restarted process: a fresh engine and driver, same endpoint. *)
let restart m node =
  Net.set_up m.w.net (addr m);
  m.driver <- driver m.w m.endpoint node;
  start m

(* [Server.kill] drops the member's series, its driver's among them, so
   its decode errors first join the net's own: a codec fault that only a
   dead member saw stays counted. *)
let kill m =
  if alive m then begin
    let errors instance =
      Obs.Metrics.counter m.w.metrics
        ~labels:[ ("instance", instance); ("proto", "frame") ]
        "wire.decode_errors"
    in
    let dying = errors (I3.Server.instance_label (server m)) in
    Obs.Metrics.(incr ~by:(counter_value dying) (errors (Net.label m.w.net)));
    m.endpoint.live <- false;
    I3.Server.kill (server m);
    Net.set_down m.w.net (addr m)
  end

(* A host at [site] whose gateways are [n_gateways] random [live]
   addresses. *)
let new_host w ~site ?config ?(n_gateways = 3) live =
  if live = [] then invalid_arg "new_host: no live servers";
  let live = Array.of_list live in
  Rng.shuffle w.rng live;
  let gateways =
    Array.to_list (Array.sub live 0 (min n_gateways (Array.length live)))
  in
  Host.create ~net:w.net ~rng:(Rng.split w.rng) ~site
    ~gateways ?config ~tracer:w.tracer ~spans:w.spans ()
