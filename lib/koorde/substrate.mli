(** Pluggable lookup substrates.

    The paper's Sec. VII frames i3 as substrate-agnostic — "i3 can use any
    DHT-style lookup" — and this module makes that literal: a {!spec}
    names a substrate (a Chord routing policy or a Koorde degree), and
    {!create} builds its router over a static membership, a
    {!Chord.Routing.t} or a {!Routing.t}.  The experiments ([lib/eval]:
    Fig. 8 with [--substrate], Fig. 9 and the bakeoff, all driven by
    [bin/i3_sim]) select a substrate by its spec and race them over one
    oracle; the simulated deployments and [bin/i3d] route by Chord
    alone. *)

type spec = Chord of Chord.Routing.policy | Koorde of { degree : int }

val label : spec -> string
(** Human-readable name, e.g. ["chord:default"], ["koorde(k=8)"]. *)

val slug : spec -> string
(** Identifier-safe name used as the JSON key in the bench [substrate]
    section, e.g. ["chord_default"], ["koorde8"] (no dots — {!Json.path}
    splits on them). *)

val of_string : string -> spec option
(** Parse a CLI spelling: [chord]/[chord-default], [chord-replica]/[cfr],
    [chord-finger-set]/[cfs], [chord-pns]/[prefix-pns], [koorde] (degree
    8) or [koorde<k>] for any power-of-two degree. *)

val bakeoff_specs : spec list
(** The default bakeoff lineup: chord-default, closest-finger-replica,
    prefix-PNS, koorde degree 2 and degree 8. *)

type t
(** A Chord or a Koorde router over one membership. *)

val create : ?latency:(int -> int -> float) -> Chord.Oracle.t -> spec -> t
(** Instantiate a substrate over a static membership oracle.  [latency] is
    required by the Chord proximity heuristics (same contract as
    {!Chord.Routing.create}). *)

val next_hop : t -> current:int -> key:Id.t -> int option
(** The ring index the current node forwards toward the key's successor,
    or [None] if already responsible. *)

val route : t -> start:int -> key:Id.t -> int list
(** Full path from [start] to [Oracle.successor_index key], both
    inclusive. *)

val candidate_count : t -> int -> int
(** Live next-hop candidates at a node. *)

val state_bytes : t -> int -> int
(** Modeled routing-table footprint of a node, in bytes
    ({!Chord.Routing.entry_bytes} per slot). *)
