(** Effect interpreter between an [I3.Engine] and a byte transport.

    The sans-IO engine returns effects; this driver spends them: send
    shapes are encoded and handed to one [send] closure (a [Udp]
    socket, a [Sim] endpoint, a [Faulty]-wrapped sender — anything),
    [Set_timer] re-arms the loop deadline exposed by {!timeout}.
    Inbound bytes enter through {!on_datagram}, which classifies and
    decodes them ([I3.Engine.decode]) and steps the engine.

    A daemon loop over UDP is:
    {[
      while running do
        let now = elapsed_ms () in
        if Udp.wait udp ~timeout:(Driver.timeout d ~now ~cap:0.25) then
          Udp.poll udp ~now;        (* handler calls on_datagram *)
        Driver.tick d ~now:(elapsed_ms ())  (* steps only when due *)
      done
    ]} *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?instance:string ->
  send:(dst:int -> string -> unit) ->
  I3.Engine.t ->
  t
(** Registers [driver.frames] / [driver.sends] counters and a
    [wire.decode_errors] counter (labels [instance], [proto="frame"])
    in [metrics]; undecodable inbound datagrams count there and are
    otherwise dropped, as a daemon must.

    Traffic is also counted per wire kind: every inbound datagram
    increments [driver.rx.<kind>] and every outbound one
    [driver.tx.<kind>], where [<kind>] is [Wire.Layout.kind_name] of
    the frame's kind byte ("data", "ping", "lookup_step", ...; inbound
    frames too short to carry one count as "runt").  Counters appear in
    the registry on first sight of each kind.

    Step latency is measured here, not in the engine (the engine is
    sans-IO and owns no clock): each {!step} observes its wall-clock
    duration into a [driver.step_ms] histogram labeled by event kind
    ([event="tick" | "frame" | "batch" | "insert_trigger" |
    "remove_trigger" | "send_packet"]). *)

val engine : t -> I3.Engine.t

val on_datagram : t -> now:float -> src:int -> string -> unit
(** Decode one inbound datagram and step the engine with it — install
    [fun ~src bytes -> on_datagram d ~now:(clock ()) ~src bytes] as
    the transport's receive handler. *)

val on_datagrams : t -> now:float -> (int * string) list -> unit
(** Drain a receive backlog of [(src, bytes)] datagrams through one
    engine step: each datagram is counted and decoded exactly as
    {!on_datagram} would ([driver.frames], [driver.rx.<kind>],
    [wire.decode_errors]), then the decodable frames are dispatched as
    a single [I3.Engine.Batch] (bare [Frame] for a single frame; no
    step at all if none decode), amortizing the engine's timer advance
    and outbox drain over the burst. *)

val tick : t -> now:float -> unit
(** Step the engine with [Tick] when {!next_due} has come ([due <=
    now]): fires the due timers and spends the effects.  Before the
    deadline, or with no timer pending, it does nothing — no engine
    step, no [driver.step_ms] sample — so a loop may call it every
    turn.  A fresh driver is due at once: its first [tick] starts the
    engine's wheel. *)

val step : t -> now:float -> I3.Engine.event -> unit
(** Step with an arbitrary event (local commands). *)

val on_effects : t -> (I3.Engine.effect list -> unit) -> unit
(** Observe every effect batch after it is spent (tracing, tests;
    default: dropped). *)

val next_due : t -> float option
(** The deadline the last step announced with [Set_timer]
    (engine-clock ms); [None] when that step announced none, and
    [Some neg_infinity] before the first step.  Steps of the engine
    made around the driver are not seen. *)

val timeout : t -> now:float -> cap:float -> float
(** Seconds the owning loop may block before the next {!tick}: gap to
    {!next_due} clamped to [cap], never negative. *)
