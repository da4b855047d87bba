(* The benchmark's workloads.  Each stresses a different layer of the
   forwarding path, so that an optimisation of one layer has a workload
   that exercises it and one that bypasses it (README.md, "Workloads"). *)

type t = {
  name : string;
  payload : int;  (** bytes per data packet: 8 B sequence number + filler *)
  hops : int;
      (** 1: the sender sends straight to the trigger's owner (the paper's
          Sec. IV-E sender cache); 2: it sends to the other member, which
          relays through Chord *)
  resident : int;  (** distinct trigger identifiers preloaded at setup *)
  fanout : int;  (** triggers per identifier: 16 makes a multicast group *)
  latency_packets : int;  (** closed-loop packets with 1 outstanding *)
  fleets : int;
      (** fleets a run sets up, each with an equal share of the phases;
          set-up time is the median over them *)
  why : string;
}

let window = 32
(** Data packets outstanding in the goodput phase. *)

(* Every workload re-asserts each trigger on [Transport.Client]'s cadence,
   a third of the trigger lifetime, as an open loop beside the data: for
   soft_1e5_64B that is 10^4 Insert/s, for the others a handful per run.
   Triggers therefore outlive any run length. *)
let refresh_period_ms = Transport.Client.default_config.refresh_period_ms

let refresh_per_s w =
  float_of_int (w.resident * w.fanout) /. (refresh_period_ms /. 1e3)

let all =
  [
    {
      name = "fwd1_16B";
      payload = 16;
      hops = 1;
      resident = 1;
      fanout = 1;
      latency_packets = 200_000;
      fleets = 5;
      why =
        "smallest packet, one hop: fixed per-packet costs (syscalls, decode, \
         step, daemon loop) dominate";
    };
    {
      name = "fwd2_1400B";
      payload = 1400;
      hops = 2;
      resident = 1;
      fanout = 1;
      latency_packets = 100_000;
      fleets = 5;
      why =
        "the only relay hop (Chord next hop at the gateway); 1400 B exposes \
         per-byte copies";
    };
    {
      name = "soft_1e5_64B";
      payload = 64;
      hops = 1;
      resident = 100_000;
      fanout = 1;
      latency_packets = 100_000;
      (* The 10^5-trigger preload makes its set-up slow and steady. *)
      fleets = 3;
      why =
        "10^5 resident triggers refreshed at 10^4 Insert/s beside the data: \
         the trie and expiry heap do real work";
    };
    {
      name = "mcast16_64B";
      payload = 64;
      hops = 1;
      resident = 1;
      fanout = 16;
      latency_packets = 50_000;
      fleets = 5;
      why =
        "one identifier with 16 triggers: each receive turns into 16 \
         encodes and sends";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Smoke scale: every code path, a fraction of a second per phase. *)
let smoke w =
  { w with resident = min w.resident 1_000; latency_packets = 2_000; fleets = 1 }
