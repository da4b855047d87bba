(** A supervised cluster of real [bin/i3d] daemons over loopback UDP —
    the live-process analogue of the simulator's deployment, and the
    substrate the chaos matrix runs against outside simulation.

    The supervisor forks N daemons that form one ring {e dynamically}:
    each member is spawned with the others as [--join] contacts and
    Chord stabilization does the rest ({!await_converged} watches it
    happen over the wire).  It reaps and respawns members (exponential
    backoff, reset after a stable period).  It asks its daemons
    everything through one status socket: a Ping for readiness
    ({!ping}) and a Chord [Get_state] for ring views ({!ring_state}),
    one request and one reply each.  {!kill} and {!restart} are how
    {!Fleet.live} runs a schedule's [Crash i] and [Restart i].
    {!pause}/{!resume} (SIGSTOP/SIGCONT) model a partition at process
    granularity — unreachable, state intact.  Each daemon flushes its
    metrics registry to a JSON dump on graceful stop;
    {!decode_errors} reads those back for post-mortem assertions. *)

type member = {
  index : int;
  name : string;  (** host:port — hashed into the member's node id *)
  port : int;
  addr : int;  (** packed, as {!Transport.Udp.pack} *)
  log_path : string;
  metrics_path : string;
  mutable pid : int option;
  mutable supervised : bool;
  mutable backoff_ms : float;
  mutable respawn_at : float option;
  mutable last_spawn : float;
}

val restart_backoff_base_ms : float
(** First respawn delay after an unexpected exit: 100 ms.  Each further
    exit doubles it. *)

val restart_backoff_max_ms : float
(** The respawn delay's cap: 3000 ms. *)

type config = {
  ping_timeout_ms : float;  (** per-probe pong wait (default 300) *)
  stabilize_ms : float;
      (** the daemons' Chord stabilization period (default 300 — fast,
          so convergence costs little wall time; paper: 30 000) *)
  rpc_timeout_ms : float;
      (** the daemons' Chord RPC timeout (default 150) *)
  metrics_flush_ms : float;
      (** the daemons' periodic metrics-flush interval: every so many ms
          each daemon appends a marker-delimited snapshot generation to
          its metrics file, so even a SIGKILL'd member leaves recent
          samples (default 1000; 0 disables — exit dump only) *)
  daemon_loss : float;
      (** forwarded as [i3d --loss]: each daemon drops this fraction of
          its {e own} sends through a seeded {!Transport.Faulty}
          decorator (default 0 — off).  This puts network weather inside
          the mesh — server->server Chord RPCs and replica pushes — not
          just at the harness's client edge *)
  daemon_fault_seed : int;
      (** base seed for the daemons' [--fault-seed]; member [i] is
          spawned with [base + i], so a whole cluster's loss decisions
          replay from one number (default 1) *)
}

val default_config : config

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?config:config ->
  ?dir:string ->
  i3d:string ->
  n:int ->
  unit ->
  t
(** Pick [n] free loopback ports, bind the status socket on loopback
    and prepare (not yet spawn) the members.  [i3d] is the daemon
    binary's path; [dir] (default: a fresh directory under the system
    temp dir) receives per-member logs and metrics dumps.  A
    status-socket datagram that does not decode counts in
    [wire.decode_errors{instance="cluster"}] in [metrics].
    @raise Invalid_argument when [n < 1]. *)

val on_event : t -> (string -> unit) -> unit
(** Supervision event log hook (spawn/kill/restart/exit). *)

val dir : t -> string
val members : t -> member list
val member : t -> int -> member
val addrs : t -> int list

val node_id : member -> Id.t
(** A member's Chord identity, exactly as the daemon derives it:
    [Id.routing_key (Id.name_hash name)]. *)

val owner_index : t -> Id.t -> int
(** Which member is responsible for an identifier once the ring has
    converged (Chord successor rule over the members' name-hashed node
    ids) — for aiming a chaos kill at a flow's server. *)

(** {1 Lifecycle} *)

val start : t -> bool
(** Spawn every member and wait until each answers a Ping (readiness by
    behavior, not stdout parsing); [false] if one has not within 10 s. *)

val spawn : t -> int -> unit
(** Low-level: fork one member (asserts it is not running). *)

val kill : t -> int -> unit
(** SIGKILL and reap a member, disarming its supervision. *)

val restart : t -> int -> unit
(** Re-arm a member's supervision and respawn it if it is down. *)

val pause : t -> int -> unit
(** SIGSTOP a member: unreachable (a partition from everyone's view)
    but all protocol state intact; supervision is disarmed. *)

val resume : t -> int -> unit
(** SIGCONT a paused member and re-arm supervision; the healed "link"
    re-merges via the daemons' graveyard/contact probes. *)

type pong = { server : int; triggers : int; uptime_ms : float }
(** A daemon's status reply to {!ping}. *)

val ping : t -> int -> timeout_ms:float -> pong option
(** One Ping to member [i] and a blocking wait, in slices of at most
    20 ms, for the Pong that echoes its nonce.  One counter numbers
    every Ping and [Get_state], and only the reply to the probe in
    flight is taken: a late answer to an earlier probe is dropped. *)

(** {1 Ring observation} *)

type ring_state = {
  self : Chord.Protocol.peer;
  pred : Chord.Protocol.peer option;
  succs : Chord.Protocol.peer list;
}
(** One member's view of the ring, as answered over the wire. *)

val ring_state : t -> int -> timeout_ms:float -> ring_state option
(** One [Get_state] round-trip against member [i] over the status
    socket, matched by token as {!ping} is by nonce. *)

val converged : t -> bool
(** Probe every live member and check {!Chord.Oracle.converged}: each
    successor pointer names the next live member clockwise by node id.
    [false] as soon as a member does not answer, or when none is
    live. *)

val await_converged : t -> timeout_ms:float -> bool
(** Poll {!converged} until true or the deadline. *)

val supervise : t -> unit
(** One supervision tick: reap exited children (each counts in
    [cluster.crashes]) and respawn supervised ones whose backoff elapsed
    (each counts in [cluster.restarts]). *)

val stop : ?grace_ms:float -> t -> unit
(** Graceful stop: SIGTERM everyone (triggering their metrics flush),
    wait up to [grace_ms], SIGKILL stragglers. *)

(** {1 Post-mortem} *)

val decode_errors : t -> int
(** [wire.decode_errors] summed across every member's metrics dump (JSON
    lines written by the daemons' graceful shutdown; a missing or
    unparseable file counts 0) — the invariant chaos pins at zero. *)
