(** Figure 9: latency stretch of the first packet (routed through the
    overlay) vs. system size, raced over lookup substrates (Sec. V-B).

    Server identifiers are random, so successive Chord hops criss-cross
    the underlying network; the paper evaluates two heuristics — closest
    finger replica (r = 10 successor replicas per finger) and closest
    finger set (fingers in base b = 2^(1/(r+1)), keeping per octave the
    lowest-latency candidate) — and finds both cut the 90th-percentile stretch
    by 2-3x versus default Chord, on both topologies, across
    N = 2^10 .. 2^15 servers.

    Each server count is one paired race: every {!Koorde.Substrate.spec}
    routes the same queries over the same placed ring.  {!Bakeoff} runs
    the same race at one server count. *)

type params = {
  kind : Topology.Model.kind;
  topo_nodes : int;
  server_counts : int list;
  queries : int;
  seed : int;
}

val default_params : Topology.Model.kind -> params
(** 5000 nodes, N in {2^10 .. 2^15}, 1000 queries. *)

type point = {
  n_servers : int;
  spec : Koorde.Substrate.spec;
  p90 : float;
  p50 : float;
  mean_hops : float;
}

val policies_for : replicas:int -> Koorde.Substrate.spec list
(** Chord's default, closest-finger-replica(r) and closest-finger-set
    with gamma = r+1 — the paper's equal-state comparison — plus the
    Sec. VII prefix-PNS substrate. *)

val run :
  ?progress:(string -> unit) ->
  specs:Koorde.Substrate.spec list ->
  params ->
  point list
(** One point per server count and spec, in that order.  Stretch and
    hops count only queries whose start and target servers sit on
    different sites. *)

(** {2 The paired race} *)

type race
(** One placed ring and the (start server, key) queries every substrate
    routes over it. *)

val draw_race : Rng.t -> Topology.Model.t -> n_servers:int -> queries:int -> race
(** One {!Workload.placed_ring}, then the queries, drawn from [rng]. *)

val route_race :
  race -> Koorde.Substrate.spec -> Koorde.Substrate.t * (float * float option) array
(** Build the spec's router over the race's ring and route every query:
    per query its hop count and its stretch (overlay path latency over
    the direct one), [None] where start and target share a site. *)
