(** Figure 8: end-to-end latency stretch vs. number of trigger samples.

    The paper's heuristic (Secs. IV-E, V-A): a receiver samples the
    identifier space — inserting [s] random triggers, measuring the RTT to
    the server each lands on — and keeps the id stored closest to itself.
    The metric is latency stretch, the ratio of the one-overlay-hop path
    sender -> trigger server -> receiver to the direct IP shortest path.
    The paper plots the 90th percentile over 1000 random sender/receiver
    pairs on 5000-node PLRG and transit-stub topologies with 2^14 servers,
    for 1..64 samples, and reports that the improvement saturates around
    16-32 samples. *)

type params = {
  kind : Topology.Model.kind;
  topo_nodes : int;
  n_servers : int;
  measurements : int;
  sample_counts : int list;
  seed : int;
}

val default_params : Topology.Model.kind -> params
(** The paper's scale: 5000 nodes, 2^14 servers, 1000 measurements,
    samples {1,2,4,8,16,32,64}. *)

type point = {
  samples : int;
  p90 : float;
  p50 : float;
  mean : float;
}

val run :
  ?progress:(string -> unit) ->
  ?metrics:Obs.Metrics.t ->
  ?substrate:Koorde.Substrate.spec ->
  params ->
  point list
(** Sampling is nested (the 32-sample choice refines the 16-sample one on
    the same draw), matching how a real host would accumulate a pool of
    sampled identifiers.  With [metrics], every individual stretch is also
    observed into the [eval.stretch] histogram (labels [topology] and
    [samples]), so registry consumers see the full distribution, not just
    the three summary points.

    Without [substrate], the measured path is the paper's steady-state
    one-overlay-hop path (sender -> trigger server -> receiver: the sender
    has cached the server's address).  With [substrate], it is instead the
    {e first-packet} path routed through that substrate: the sender enters
    the overlay at a random gateway server and the packet is forwarded hop
    by hop to the trigger's server before reaching the receiver. *)

val header : string list
(** Column names shared by {!rows} and the CLI sinks. *)

val rows : point list -> string list list
(** Structured rows; callers choose the sink ({!Obs.Sink.aligned_table},
    {!Report.csv}, {!Report.json}). *)
