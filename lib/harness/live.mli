(** Live-cluster recovery invariants and SLO verdicts: the wall-clock
    driver of the checks [Eval.Recovery] / [Eval.Monitor] run in
    virtual time, against real [bin/i3d] processes.

    Delivery is measured by the same {!Obs.Probe} core both substrates
    share, so "delivered" and "recovered" mean one thing on either.
    One {!t} owns a {!Transport.Client}'s host's [on_receive] callback and
    dispatches payloads to its flows and to {e conservation probes}
    (behavioral proof that a trigger is stored and matchable at its
    responsible daemon).  A {!monitor} judges {!Obs.Health} rules over
    the registry the client and flows write, yielding monitor-measured
    TTD/TTR to compare against ground truth. *)

type t

val attach : ?metrics:Obs.Metrics.t -> Transport.Client.t -> t
(** Takes over the client's host's [on_receive]. *)

(** {1 Probe flows} *)

type flow

val start_flow : ?period_ms:float -> t -> name:string -> Id.t -> flow
(** A periodic probe stream through identifier [id] (default period
    100 ms).  Arrange the trigger first — the flow only measures.
    @raise Invalid_argument on a name already used in the registry. *)

val stop_flow : flow -> unit

val flow_tick : t -> flow -> now_ms:float -> unit
(** Send the next probe when due; call every scheduler tick. *)

val sent : flow -> int
val received : flow -> int
val delivery_ratio : flow -> float

val time_to_recovery : flow -> after:float -> float option
(** {!Obs.Probe.time_to_recovery}, in wall ms. *)

val longest_outage : flow -> float
(** {!Obs.Probe.longest_outage}, in wall ms. *)

(** {1 Trigger conservation} *)

val triggers_conserved :
  ?attempts:int -> ?attempt_timeout_ms:float -> t -> bool
(** Every trigger the client keeps refreshed is conserved: a probe to
    its identifier comes back as a Deliver frame within [attempts]
    tries (default 5) of [attempt_timeout_ms] each (default 400), so
    storage, rewrite and the final IP hop all demonstrably work. *)

(** {1 Live monitor} *)

val default_rules : ?instance:string -> flow -> Obs.Health.rule list
(** The flow's {!Obs.Probe.delivery_rule} at [ok = 0.6],
    [degraded = 0.25] (headroom for probes in flight and the injected
    baseline loss), plus [client.gave_up] of [instance] (default
    ["client"]) staying 0: any give-up is a Violated verdict. *)

type monitor

val monitor : ?period_ms:float -> ?rules:Obs.Health.rule list -> t -> monitor
(** Judge [rules] every [period_ms] (default 250) of wall time; drive it
    from the scheduler tick via {!monitor_tick}. *)

val monitor_tick : monitor -> now_ms:float -> unit

val time_to_detect : monitor -> fault_at:float -> float option
(** {!Obs.Health.time_to_detect}, in wall ms. *)

val time_to_recover : monitor -> fault_at:float -> float option
(** {!Obs.Health.time_to_recover}, in wall ms. *)
