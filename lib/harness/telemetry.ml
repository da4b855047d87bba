(* The I/O half of the live telemetry plane.

   [Obs.Scrape] decides when to poll which daemon and where the answers
   land; this module owns what that module may not (obs sits below the
   transport and protocol layers): a dedicated UDP socket, the
   [I3.Codec] framing, and the wall clock handed in by the caller.  The
   socket is separate from the chaos client's for the same reason the
   cluster's chord probe is — a [Stats_response] landing on the client
   socket would read as an i3 decode error in the very counter the
   telemetry is supposed to pin at zero.

   On top of the scraper this module wires the two consumers the chaos
   harness wants: an [Obs.Health] monitor whose rules are judged
   directly against the wire-scraped series store (no exit dumps
   involved), with an optional flight-recorder dump appended to a file
   on each entry into [Violated]; and cross-process trace assembly —
   drained hop events from every daemon joined on the trace id into
   causal trees. *)

type t = {
  udp : Transport.Udp.t;
  interval_ms : float;  (* scrape and rule-evaluation period *)
  scrape : Obs.Scrape.t;
  mutable now_ms : float;  (* stamp for datagrams handled inside tick *)
  mutable monitor : Obs.Health.t option;
  mutable last_eval : float;
}

let handle_datagram t bytes =
  match I3.Codec.decode bytes with
  | Ok (I3.Message.Stats_response { nonce; server = _; samples; events }) ->
      ignore
        (Obs.Scrape.on_response t.scrape ~now:t.now_ms ~nonce ~samples ~events)
  | Ok _ | Error _ -> () (* stray or undecodable: that scrape times out *)

let create ~interval_ms ?(host = "127.0.0.1") targets =
  let udp = Transport.Udp.create ~host () in
  let scrape = Obs.Scrape.create ~interval_ms targets in
  let t =
    {
      udp;
      interval_ms;
      scrape;
      now_ms = 0.;
      monitor = None;
      last_eval = neg_infinity;
    }
  in
  Transport.Udp.set_handler udp (fun ~src:_ bytes -> handle_datagram t bytes);
  t

let of_cluster ~interval_ms cluster =
  create ~interval_ms
    (List.map
       (fun (m : Cluster.member) ->
         { Obs.Scrape.addr = m.addr; instance = m.name })
       (Cluster.members cluster))

let scrape t = t.scrape
let store t = Obs.Scrape.store t.scrape

let monitor ~rules t =
  let h = Obs.Health.create ~store:(store t) ~rules (Obs.Metrics.create ()) in
  t.monitor <- Some h;
  h

(* Append one flight-recorder dump per breach episode: the monitor's
   evaluations, the tail of every wire-scraped series, and the hop
   events drained so far (kept, not consumed — assembly still sees
   them). *)
let flight_recorder t ~path =
  match t.monitor with
  | None -> invalid_arg "Telemetry.flight_recorder: no monitor installed"
  | Some h ->
      Obs.Health.on_violation h (fun evals ->
          let record =
            Obs.Sink.flight_record ~at:t.now_ms ~reason:"slo-violated"
              ~series:(Obs.Series.all (store t))
              ~events:(Obs.Scrape.events t.scrape)
              ~evaluations:evals ()
          in
          Json.lines_to_file ~append:true ~path [ record ])

let tick t ~now_ms =
  t.now_ms <- now_ms;
  (* Drain answers first so this interval's requests can't be satisfied
     by last interval's datagrams queued behind them. *)
  Transport.Udp.poll t.udp ~now:now_ms;
  List.iter
    (fun (r : Obs.Scrape.request) ->
      let bytes =
        I3.Codec.encode
          (I3.Message.Stats_request
             { nonce = r.nonce; prefix = ""; drain = true })
      in
      (* A dead member's request is lost on the wire and its nonce
         expires; an unsendable address is skipped and counted. *)
      Transport.Udp.send t.udp ~dst:r.dst bytes)
    (Obs.Scrape.tick t.scrape ~now:now_ms);
  match t.monitor with
  | Some h when now_ms -. t.last_eval >= t.interval_ms ->
      t.last_eval <- now_ms;
      ignore (Obs.Health.evaluate h ~time:now_ms)
  | _ -> ()

let assemble t = Obs.Trace.assemble (Obs.Scrape.events t.scrape)

let close t = Transport.Udp.close t.udp
