(** i3 identifiers: m = 256-bit values on the Chord circle.

    Packets carry an identifier; triggers carry an identifier plus a target.
    A trigger id [t] matches a packet id [p] iff they share at least
    k = 128 leading bits and [t] is the longest-prefix match among stored
    triggers (paper Sec. II-B).  Identifiers double as Chord keys: the
    routing key of an id is the id with its last m-k bits cleared, and i3
    server ids have their last k bits zero so that all ids sharing a k-bit
    prefix are stored on one server (Sec. IV-A).

    Values are immutable 32-byte big-endian strings; comparison is unsigned
    lexicographic, which coincides with numeric order. *)

type t

val bits : int
(** m = 256. *)

val prefix_bits : int
(** k = 128, the exact-match threshold. *)

val byte_length : int
(** 32. *)

val zero : t
val max_value : t
(** 2{^256} - 1. *)

(** {1 Construction} *)

val of_raw_string : string -> t
(** Wrap a 32-byte string. @raise Invalid_argument on wrong length. *)

val to_raw_string : t -> string

val of_hex : string -> t
(** Parse 64 hex digits. @raise Invalid_argument on malformed input. *)

val to_hex : t -> string

val of_int : int -> t
(** Small non-negative integer embedded in the low-order bits. *)

val of_int64_shift : int64 -> int -> t
(** [of_int64_shift v s] is [v * 2{^s} mod 2{^256}] for non-negative [v].
    Used to build the fractional-base finger targets of the
    closest-finger-set heuristic (Sec. V-B). *)

val random : Rng.t -> t
(** Uniform identifier. *)

val random_with_prefix : Rng.t -> t -> t
(** [random_with_prefix rng p] keeps the first k bits of [p] and randomizes
    the rest: how anycast group members derive their trigger ids
    (Sec. II-D3). *)

val name_hash : string -> t
(** Public trigger identifier: SHA-256 of a DNS name / URL / public key
    (Sec. IV-B). *)

(** {1 Ordering and equality} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
(** Prints an abbreviated hex form (first 8 + last 4 digits). *)

(** {1 Ring arithmetic (mod 2{^256})} *)

val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val add_pow2 : t -> int -> t
(** [add_pow2 id e] is [id + 2{^e}]: Chord finger targets. [e] in
    \[0, 255\]. *)

val antipode : t -> t
(** [id + 2{^m-1}]: the paper's recipe for a backup trigger stored on a
    different server with high probability (Sec. IV-C footnote). *)

val distance_cw : t -> t -> t
(** Clockwise distance from [a] to [b] on the circle: [b - a mod 2{^256}]. *)

val shift_left : t -> int -> t
(** [shift_left id n] is [id * 2{^n} mod 2{^256}]: the de Bruijn
    shift-and-append step of Koorde routing multiplies the current
    imaginary identifier by the graph degree (Kaashoek & Karger,
    IPTPS 2003). [n >= 256] yields {!zero}. *)

val shift_right : t -> int -> t
(** [shift_right id n] is [id / 2{^n}] (logical shift; high bits are
    zero-filled). [n >= 256] yields {!zero}. *)

(** {1 Bit and prefix operations} *)

val test_bit : t -> int -> bool
(** [test_bit id i] reads bit [i] counting from the most significant
    (bit 0). *)

val extract_bits : t -> pos:int -> len:int -> int
(** [extract_bits id ~pos ~len] reads the [len]-bit window starting at bit
    [pos] (counting from the most significant, as {!test_bit}) as an
    integer: the next base-2{^b} digit a Koorde hop appends. [len] in
    \[0, 30\]. *)

val common_prefix_len : t -> t -> int
(** Number of identical leading bits, in \[0, 256\]. *)

val matches : t -> t -> bool
(** [matches trigger_id packet_id]: at least k common leading bits. The
    longest-prefix tie-break among candidates is the trigger table's job. *)

val clear_low_bits : t -> int -> t
(** [clear_low_bits id n] zeroes the [n] least-significant bits. *)

val routing_key : t -> t
(** [clear_low_bits id (bits - prefix_bits)]: the Chord key an id is routed
    by, so all ids sharing a k-bit prefix map to the same server. *)

val is_server_id : t -> bool
(** True iff the last k bits are zero (well-formed server identifier). *)

val prefix64 : t -> int64
(** The top 64 bits, used by the constrained-trigger field split. *)

val key128 : t -> string
(** Bits 64..191 as a 16-byte string: the "key" field of the
    constrained-trigger format (Sec. IV-J). *)

val suffix64 : t -> int64

val with_key128 : t -> string -> t
(** Replace the 128-bit key field. @raise Invalid_argument if the
    replacement is not 16 bytes. *)

val with_suffix : t -> low_bits:int -> string -> t
(** [with_suffix id ~low_bits s] overwrites the [low_bits] least-significant
    bits with the low-order bits of [s] (padded/truncated); used to encode
    application preferences such as location into the id suffix
    (Sec. III-C). [low_bits] must be a multiple of 8. *)
