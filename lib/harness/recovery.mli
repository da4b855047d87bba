(** Recovery checks written once against {!Fleet}, so the simulator and
    real [bin/i3d] processes are held to the same definition of "the
    fleet recovered" (paper Secs. IV-C, V-C: soft state repairs every
    transient fault): the ring re-converges, every refreshed trigger is
    conserved, probe {!flow}s deliver again, and a {!monitor} that reads
    only the fleet's registry sees the fault and the recovery. *)

type t

val create : Fleet.t -> t
(** Takes over the fleet receiver's [on_receive]: conservation probes
    are answered here, everything else goes to the flows. *)

(** {1 Invariants} *)

val converges_within : t -> budget:float -> float option
(** Poll {!Fleet.converged} every second for up to [budget] ms; the time
    it took. *)

val triggers_conserved : t -> bool
(** Every active trigger of the receiver answers a probe: sent to its
    identifier through the receiver's gateway (not a cached server, so a
    stale copy at a non-owner cannot pass), it comes back as a Deliver
    carrying that probe's nonce within 5 tries of 400 ms.  Call it after
    the repair bound [refresh_period_ms + ack_grace_ms]. *)

(** {1 Probe flows} *)

type flow

val start_flow : ?period:float -> t -> name:string -> Id.t -> flow
(** A probe from the sender to [id] every [period] ms (default 250).
    Insert the receiver's trigger first: the flow only measures.
    @raise Invalid_argument on a name already in the fleet's registry. *)

val stop_flow : flow -> unit
val received : flow -> int
val time_to_recovery : flow -> after:float -> float option

(** {1 Monitor} *)

type monitor

val sim_rules : flow -> Obs.Health.rule list
(** The flow's {!Obs.Probe.delivery_rule} at [ok = 0.8],
    [degraded = 0.45], and Chord RPC timeouts on the control ring under
    0.5/s (Degraded to 4/s) over 2 s: a converged ring has none. *)

val live_rules : flow -> Obs.Health.rule list
(** The delivery rule at [ok = 0.6], [degraded = 0.25] (room for probes
    in flight and the client edge's injected loss), and
    [client.gave_up] staying 0. *)

val monitor : ?period:float -> t -> rules:Obs.Health.rule list -> monitor
(** Scrape the fleet's registry and judge [rules] every [period] ms
    (default 500).  Each of the first four entries into [Violated]
    captures a flight dump: the registry, series tails, recent operation
    and packet events and the evaluations. *)

val stop_monitor : monitor -> unit
val health : monitor -> Obs.Health.t
val dumps : monitor -> (float * Json.t) list

val live_row : monitor -> string list
(** The time, the overall verdict and ["value verdict"] per rule of
    {!health}'s rules, from the latest scrape. *)

(** {1 Scenarios} *)

type metrics = {
  scenario : string;
  sent : int;
  delivered : int;
  delivery_ratio : float;
  time_to_recovery_ms : float option;
  longest_outage_ms : float;
  converged : bool;
  conserved : bool;
  detect_ms : float option;  (** the monitor's time-to-detect *)
  monitor_ttr_ms : float option;  (** the monitor's time-to-recover *)
}

val recover :
  t ->
  scenario:string ->
  fault_at:float ->
  budget:float ->
  repair_ms:float ->
  flow ->
  monitor ->
  metrics
(** The checks after a fault: convergence within [budget] ms, then
    [repair_ms] for soft state, trigger conservation, and 3 s for the
    monitor to catch up.  Stops the monitor and the flow. *)

type scenario = {
  name : string;
  schedule : Fleet.t -> Id.t -> Faults.schedule;
      (** built from the fleet and the flow's identifier *)
  fault_ms : float;  (** how long to run after injecting *)
}

val kill_owner : down_ms:float -> fault_ms:float -> scenario
(** ["kill owner"]: crash the owner of the flow's identifier, restart it
    [down_ms] later. *)

val run :
  t -> scenario -> budget:float -> repair_ms:float -> flow -> monitor -> metrics
(** Inject, run [fault_ms], then {!recover}, with the schedule's first
    event as the fault instant. *)

val report : metrics list -> unit
