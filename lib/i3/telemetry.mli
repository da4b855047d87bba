(** Glue between the simulator's byte network and i3's accounting.

    {!install_net_tracer} attaches an {!Obs.Trace} collector to a
    network's observer hook: for every frame carrying a trace id (a data
    packet or a [Deliver]), an accepted transmission records [Enqueue]
    and a network-level loss records [Drop "net:<cause>"] — the terminal
    event for packets the fault model eats in flight.  No-op when the
    tracer is disabled.  Other frames, Chord RPCs included, are not
    traced.

    The trace id rides in the frame header at [Wire.Layout.off_trace]
    (bytes 28–35), so it crosses the simulated net and UDP unchanged. *)

val install_net_tracer : tracer:Obs.Trace.t -> string Net.t -> unit

val receiver :
  string Net.t ->
  (src:Net.addr -> Message.t -> unit) ->
  src:Net.addr ->
  string ->
  unit
(** [receiver net handle] is a receive handler for an i3 endpoint on
    [net]: it decodes each datagram ({!Codec.decode}) and hands the
    message to [handle].  An undecodable datagram is dropped and counted
    in [wire.decode_errors] (labels: the net's [instance],
    [proto="i3"]) in the net's registry, as a daemon counts its own. *)
