(** Wire codec for the Chord RPC vocabulary ({!Protocol.msg}).

    Frames share the i3 preamble ([Wire.Layout]: magic ["i3"], version,
    kind byte at offset 3); Chord kinds occupy [0x20]–[0x24].  Ids travel
    as their 32 raw bytes, addresses and tokens as u64, peer lists as a
    u8 count (bounded by [Wire.Layout.max_peer_list]) followed by
    [id32 | addr8] pairs. *)

val encode : Protocol.msg -> string

val decode : string -> (Protocol.msg, string) result
(** Never raises; rejects truncation, bad tags, oversized peer counts
    and trailing bytes. *)
