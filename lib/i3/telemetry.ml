(* Glue between the payload-agnostic byte network and i3's accounting:
   with tracing on, the network reports each frame's fate to an observer,
   which decodes it and records Enqueue / net-drop events for traced i3
   frames; endpoints count what does not decode.  Shared by
   {!Deployment}, {!Host} and [Transport.Dynamic]. *)
let install_net_tracer ~tracer (net : string Net.t) =
  if Obs.Trace.enabled tracer then
    Net.set_observer net (fun ~src ~dst:_ bytes outcome ->
        match Result.map Message.trace_of (Codec.decode bytes) with
        | Ok None | Error _ -> ()
        | Ok (Some trace) -> (
            let time = Sim.Engine.now (Net.engine net) in
            let site = Net.site net src in
            match outcome with
            | `Enqueue ->
                Obs.Trace.record tracer trace ~time ~site Obs.Trace.Enqueue
            | `Drop cause ->
                Obs.Trace.record tracer trace ~time ~site
                  (Obs.Trace.Drop ("net:" ^ cause))))

let receiver net handle =
  let errors =
    Obs.Metrics.counter (Net.metrics net)
      ~labels:[ ("instance", Net.label net); ("proto", "i3") ]
      "wire.decode_errors"
  in
  fun ~src bytes ->
    match Codec.decode bytes with
    | Ok msg -> handle ~src msg
    | Error _ -> Obs.Metrics.incr errors
