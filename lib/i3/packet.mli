(** i3 packets: an identifier stack plus an opaque payload (Sec. II-E).

    A packet [(id_stack, data)] is forwarded based on the first identifier
    of its stack; triggers may rewrite the head into their own stacks, and
    an [Addr] head means "hand the rest of the stack and the payload to
    this end-host over IP".

    The wire format mirrors the prototype: a fixed 48-byte header followed
    by up to four stack entries and the payload (Sec. V-C reports a common
    48-byte header and data packets carrying "a stack of up to four
    triggers").  En/decoding is exercised by the Fig. 10/12 forwarding
    benchmarks so payload-size-dependent costs are realistic. *)

type addr = Net.addr

type stack_entry =
  | Sid of Id.t  (** route further through i3 *)
  | Saddr of addr  (** deliver via IP to an end-host *)

type stack = stack_entry list

val pp_stack : Format.formatter -> stack -> unit
val stack_equal : stack -> stack -> bool

val max_stack_depth : int
(** 4, as in the prototype. *)

type payload
(** Opaque payload bytes.  After {!decode} this is a zero-copy slice of
    the received frame; it is materialized (once, memoized) only when
    {!payload_string} is called — the delivery boundary.  {!make} builds
    one from a string. *)

type t = {
  stack : stack;
  payload : payload;
  refresh : bool;
      (** the header's refreshing flag [r]: ask the responsible server to
          report its address back to the sender so subsequent packets go
          direct (Sec. IV-E) *)
  match_required : bool;
      (** header flag: drop rather than pop when the head identifier finds
          no trigger — used when every stack element must match, e.g.
          heterogeneous multicast with backup triggers (Sec. IV-C) *)
  sender : addr option;
      (** where [Cache_info] feedback and challenges are sent *)
  prev_trigger : (addr * Id.t) option;
      (** provenance for pushback: the server that last applied a trigger
          and that trigger's identifier (Sec. IV-J2) *)
  ttl : int;  (** residual hop/rewrite budget; a transport-level loop stop *)
  trace : int;
      (** {!Obs.Trace} id carried end-to-end (wire bytes 28–35 —
          authoritative offsets in [Wire.Layout.off_trace]); [0] means
          untraced and costs nothing *)
}

val make :
  ?sender:addr ->
  ?trace:int ->
  stack:stack ->
  payload:string ->
  unit ->
  t
(** Build a packet with both flags clear and a [ttl] of 32 (set others
    with a record update).  @raise Invalid_argument on an empty or
    over-deep stack. *)

val payload_string : t -> string
(** The payload bytes as a string, copying out of the receive buffer on
    first use (memoized). *)

val payload_length : t -> int
(** Payload size in bytes, without materializing a slice. *)

val equal : t -> t -> bool
(** Field-wise equality comparing payloads by content — structural [=]
    distinguishes a borrowed (just-decoded) payload from an owned one
    even when the bytes agree. *)

val header_bytes : int
(** 48 ([Wire.Layout.header_bytes]); all offsets live in {!Wire.Layout}. *)

val encode : t -> string
(** Serialize to the wire format. *)

val decode : string -> (t, string) result
(** Parse a wire packet; [Error] describes the first malformed field.
    Rejects trailing bytes: a valid frame is consumed exactly. *)

val wire_length : t -> int
(** Length [encode] would produce, without allocating. *)

(** {2 Codec building blocks}

    Shared with {!Codec} so control messages carrying ids, addresses and
    identifier stacks use byte-identical encodings. *)

val put_stack : Buffer.t -> stack -> unit
(** u8 count + entries. *)

val read_stack : ?min_depth:int -> Wire.Io.reader -> stack
(** Inverse of {!put_stack}; depth must be in [min_depth]
    (default 1) [.. max_stack_depth], else it raises
    [Wire.Io.Malformed]. *)
