(** Effect interpreter between an [I3.Engine] and a byte transport.

    The sans-IO engine returns effects; this driver spends them: a
    step's send shapes are encoded, in effect order, and handed to one
    [send] call as one list ([Udp.send_many], which puts it on the wire
    in one [sendmmsg]; a [Sim] endpoint or a [Faulty]-wrapped sender
    iterates it), and [Set_timer] re-arms the loop deadline exposed by
    {!timeout}.

    The engine is reached two ways only, the ways a daemon reaches it:
    inbound bytes through {!on_datagrams}, which classifies and decodes
    them ([I3.Engine.decode]) and steps the engine, and the clock
    through {!tick}.  A daemon loop over UDP is:
    {[
      while running do
        let now = elapsed_ms () in
        if Udp.wait udp ~timeout:(Driver.timeout d ~now ~cap:0.25) then
          Udp.poll udp ~now;        (* handler calls on_datagrams *)
        Driver.tick d ~now:(elapsed_ms ())  (* steps only when due *)
      done
    ]} *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?instance:string ->
  send:((int * string) list -> unit) ->
  I3.Engine.t ->
  t
(** [send] receives each step's [(dst, bytes)] datagrams in effect
    order, once per step that has any; a step that sends nothing does
    not call it.

    Registers [driver.frames] / [driver.sends] counters and a
    [wire.decode_errors] counter (labels [instance], [proto="frame"])
    in [metrics]; undecodable inbound datagrams count there and are
    otherwise dropped, as a daemon must.

    Step latency is measured here, not in the engine (the engine is
    sans-IO and owns no clock): each engine step observes its
    wall-clock duration into a [driver.step_ms] histogram labeled by
    event kind ([event="tick" | "frame" | "batch"]). *)

val engine : t -> I3.Engine.t

val on_datagrams : t -> now:float -> (int * string) list -> unit
(** The one receive path: drain a backlog of [(src, bytes)] datagrams
    through one engine step.  Each datagram is counted
    ([driver.frames]) and decoded on its own, an undecodable one counts
    in [wire.decode_errors], and the decodable frames are dispatched as
    a single [I3.Engine.Batch] (a bare [Frame] for a single frame; no
    step at all if none decode), amortizing the engine's timer advance
    and outbox drain over the burst.  A transport that hands over one
    datagram at a time passes a one-element list. *)

val tick : t -> now:float -> unit
(** Step the engine with [Tick] when {!next_due} has come ([due <=
    now]): fires the due timers and spends the effects.  Before the
    deadline, or with no timer pending, it does nothing — no engine
    step, no [driver.step_ms] sample — so a loop may call it every
    turn.  A fresh driver is due at once: its first [tick] starts the
    engine's wheel. *)

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
