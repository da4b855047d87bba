(** Machine-checked robustness invariants and recovery metrics for chaos
    scenarios over a running {!Transport.Dynamic} deployment (paper
    Secs. IV-C, V-C: soft state repairs every transient inconsistency).

    The checkers formalize what "the deployment recovered" means:

    - {b ring convergence}: after a quiet period, every probed identifier
      has exactly one responsible server ({!ring_converged},
      {!converges_within});
    - {b trigger conservation}: every trigger a host keeps refreshed is
      stored again at its (unique) responsible server — the paper's bound
      is within [refresh_period_ms + ack_grace_ms] of the fault
      ({!triggers_conserved});
    - {b end-to-end liveness}: a periodic probe {!flow} measures delivery
      ratio and time-to-recovery around a fault window, through the same
      {!Obs.Probe} core [Harness.Live] drives on wall clocks.

    Results aggregate into {!metrics} rows printed by {!report}. *)

(** {1 Invariant checkers} *)

val ring_converged : ?probes:int -> Rng.t -> Transport.Dynamic.t -> bool
(** [ring_converged rng d] probes [probes] (default 32) random
    identifiers and checks each has exactly one owner. *)

val converges_within :
  ?probes:int ->
  ?check_every:float ->
  budget:float ->
  Rng.t ->
  Transport.Dynamic.t ->
  float option
(** Run the deployment until {!ring_converged} holds, checking every
    [check_every] ms (default 1000), giving up after [budget] ms of
    virtual time; returns the elapsed virtual time to convergence. *)

val triggers_conserved : Transport.Dynamic.t -> Transport.Host.t list -> bool
(** Every active trigger of every given host is stored (and matchable)
    at every live server claiming responsibility for it, and at least
    one server claims it.  Call after the repair bound
    [refresh_period_ms + ack_grace_ms] has elapsed since the fault. *)

(** {1 Probe flows} *)

type flow
(** An {!Obs.Probe} driven in virtual time: a probe stream
    [sender -> id -> receiver].  Starting a flow takes over the
    receiver's [on_receive] callback; give each flow its own receiver
    host. *)

val start_flow :
  Transport.Dynamic.t ->
  sender:Transport.Host.t ->
  receiver:Transport.Host.t ->
  ?period:float ->
  ?name:string ->
  Id.t ->
  flow
(** Send one probe every [period] ms (default 250).  Insert the
    receiver's trigger first: the flow only measures. *)

val stop_flow : flow -> unit

val probe : flow -> Obs.Probe.t
(** The flow's bookkeeping; {!Monitor.default_rules} builds its
    delivery rule from it. *)

val received : flow -> int
(** {!Obs.Probe.received}. *)

val time_to_recovery : flow -> after:float -> float option
(** {!Obs.Probe.time_to_recovery}, in virtual ms. *)

(** {1 Reporting} *)

type metrics = {
  scenario : string;
  sent : int;
  delivered : int;
  delivery_ratio : float;
  time_to_recovery_ms : float option;
  longest_outage_ms : float;
  converged : bool;
  detect_ms : float option;
      (** the monitor's time-to-detect: fault instant to first
          non-[Ok] health verdict (ground truth is instantaneous; the
          monitor only sees the next scrape) *)
  monitor_ttr_ms : float option;
      (** the monitor's time-to-recover: fault instant to the first
          [Ok] verdict after the first breach *)
}

val metrics :
  scenario:string ->
  ?fault_at:float ->
  ?detect_ms:float ->
  ?monitor_ttr_ms:float ->
  converged:bool ->
  flow ->
  metrics
(** Snapshot a flow; [fault_at] anchors {!time_to_recovery}.
    [detect_ms] / [monitor_ttr_ms] come from a {!Monitor} when one
    watched the scenario. *)

val report : metrics list -> unit
(** Print a {!Report.table} of the scenario matrix. *)
