(** The substrate bakeoff: Chord variants vs. Koorde, head to head.

    The paper's Sec. VII argues i3 is substrate-agnostic; this harness
    asks what that substrate choice actually buys.  It races
    every {!Koorde.Substrate.spec} over the {e same} static membership,
    transit-stub placement, and query set — Fig. 9's paired race
    ({!Proximity_routing.route_race}) at one server count — and reports
    the three axes of the routing-scalability tradeoff:

    - hops (mean and p99) from a random server to the responsible server,
    - first-packet latency stretch (overlay path / direct IP path),
    - modeled routing-state bytes per node.

    Classic Chord pays a log2 n finger table for (log2 n)/2 expected
    hops; Koorde degree 8 keeps ~11 expected table slots — constant in
    n — and still takes about (log2 n)/3 + 1 hops, beating Chord on both
    axes at n = 10^4.  Degree 2 is the minimal-state extreme: ~5 slots,
    log2 n hops.  The proximity heuristics trade the other way, spending state
    to buy stretch, not hops. *)

type params = {
  kind : Topology.Model.kind;
  topo_nodes : int;
  n_servers : int;
  queries : int;
  state_samples : int;  (** nodes sampled for the state-bytes average *)
  seed : int;
  specs : Koorde.Substrate.spec list;
}

val default_params : Topology.Model.kind -> params
(** 5000 topology nodes, n = 10^4 servers, 1000 queries, 256 state
    samples, {!Koorde.Substrate.bakeoff_specs}. *)

type point = {
  spec : Koorde.Substrate.spec;
  mean_hops : float;
  p99_hops : float;
  p50_stretch : float;
  p90_stretch : float;
  state_bytes_mean : float;
  candidates_mean : float;
}

val run : ?progress:(string -> unit) -> params -> point list
(** One point per spec, in [params.specs] order.  Deterministic given
    [seed] (pure virtual-time computation), so results are gateable. *)

val header : string list
val rows : point list -> string list list

val to_json : params -> point list -> Json.t
(** The bench [substrate] section: one object per spec keyed by
    {!Koorde.Substrate.slug}, plus the run's scale parameters. *)
