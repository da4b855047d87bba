(** Machine-checked robustness invariants and recovery metrics for chaos
    scenarios over a running {!I3.Dynamic} deployment (paper Secs. IV-C,
    V-C: soft state repairs every transient inconsistency).

    The checkers formalize what "the deployment recovered" means:

    - {b ring convergence}: after a quiet period, every probed identifier
      has exactly one responsible server ({!ring_converged},
      {!converges_within});
    - {b trigger conservation}: every trigger a host keeps refreshed is
      stored again at its (unique) responsible server — the paper's bound
      is within [refresh_period_ms + ack_grace_ms] of the fault
      ({!triggers_conserved});
    - {b end-to-end liveness}: a periodic probe {!flow} measures delivery
      ratio and time-to-recovery around a fault window.

    Results aggregate into {!metrics} rows rendered through
    {!Report.table} / CSV. *)

(** {1 Invariant checkers} *)

val ring_converged : ?probes:int -> Rng.t -> I3.Dynamic.t -> bool
(** [ring_converged rng d] probes [probes] (default 32) random
    identifiers and checks each has exactly one owner. *)

val converges_within :
  ?probes:int ->
  ?check_every:float ->
  budget:float ->
  Rng.t ->
  I3.Dynamic.t ->
  float option
(** Run the deployment until {!ring_converged} holds, checking every
    [check_every] ms (default 1000), giving up after [budget] ms of
    virtual time; returns the elapsed virtual time to convergence. *)

val triggers_conserved : I3.Dynamic.t -> I3.Host.t list -> bool
(** Every active trigger of every given host is stored (and matchable)
    at every live server claiming responsibility for it, and at least
    one server claims it.  Call after the repair bound
    [refresh_period_ms + ack_grace_ms] has elapsed since the fault. *)

(** {1 Probe flows} *)

type flow
(** A periodic probe stream [sender -> id -> receiver].  Starting a flow
    takes over the receiver's [on_receive] callback; give each flow its
    own receiver host. *)

val start_flow :
  I3.Dynamic.t ->
  sender:I3.Host.t ->
  receiver:I3.Host.t ->
  ?period:float ->
  ?name:string ->
  Id.t ->
  flow
(** Insert the receiver's trigger is {e not} done here — arrange triggers
    first, then probe.  Sends one marked packet every [period] ms
    (default 250). *)

val stop_flow : flow -> unit

val flow_name : flow -> string

val flow_labels : flow -> (string * string) list
(** The labels the flow's [eval.flow.sent] / [eval.flow.received]
    counters carry in the registry — what a {!Monitor} delivery rule
    filters by. *)

val sent : flow -> int
val received : flow -> int
(** Distinct probe packets received (duplicates from the fault layer and
    multi-path anomalies count once). *)

val delivery_ratio : flow -> float
(** [received / sent]; 1.0 for an empty flow. *)

val time_to_recovery : flow -> after:float -> float option
(** Virtual ms from absolute time [after] (typically the fault instant)
    to the first probe delivered at or after it; [None] if the flow never
    recovered. *)

val longest_outage : flow -> float
(** Longest gap between consecutive deliveries (flow start and stop act
    as virtual deliveries), i.e. the worst service interruption. *)

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

val header : string list
(** Column names shared by {!rows}, {!report}, {!csv} and {!json}. *)

val rows : metrics list -> string list list
(** Structured rows — callers pick the sink ({!Report.table},
    {!Report.csv}, {!Report.json} or their own). *)

val report : metrics list -> unit
(** Print a {!Report.table} of the scenario matrix. *)

val csv : path:string -> metrics list -> unit
val json : path:string -> metrics list -> unit
