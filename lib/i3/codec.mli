(** Wire codec for the full i3 message vocabulary ({!Message.t}).

    A [Data] packet's frame {e is} its {!Packet} encoding — the 48-byte
    common header's flags byte (offset 3, always [< 0x10]) doubles as
    the frame discriminator, so the hot path carries zero framing
    overhead.  Control messages share the [Wire.Io] preamble (magic
    ["i3"], version) with a kind byte in [0x10]–[0x1c] at the same
    offset, followed by a per-kind body built from the shared building
    blocks: raw 32-byte ids, u64 addresses, {!Packet} stack entries,
    IEEE-754 lifetimes, length-prefixed tokens/payloads. *)

val encode : Message.t -> string

val decode : string -> (Message.t, string) result
(** Never raises; rejects truncation, bad magic/version, unknown kinds
    or tags, out-of-range stack depths and batch counts, and trailing
    bytes. *)
