(** Anycast (Sec. II-D3): members of a group register triggers that are
    identical in the k most-significant bits; the remaining m-k bits
    encode application preferences, and the longest-prefix match delivers
    each packet to exactly one best member.

    The suffix layout follows the paper's server-selection examples
    (Sec. III-C): the encoded preference (location, load key, ...)
    occupies the most-significant suffix bytes so it dominates the prefix
    match, and a random tail breaks ties between members. *)

type group = Id.t
(** Only the first k bits are meaningful. *)

val create_group : Rng.t -> group
val named_group : string -> group

val suffix_bytes : int
(** (m - k) / 8 = 16 bytes of preference space. *)

val member_id : Rng.t -> group:group -> ?preference:string -> unit -> Id.t
(** Identifier for a member trigger: group prefix, then the preference
    bytes (at most {!suffix_bytes}, truncated/zero-padded), then a random
    tail. With no preference the whole suffix is random (pure load
    spreading). *)

val packet_id : Rng.t -> group:group -> ?preference:string -> unit -> Id.t
(** Identifier a sender uses to reach the member whose preference best
    matches. *)

val join : Transport.Host.t -> Rng.t -> group:group -> ?preference:string -> unit -> Id.t
(** Insert a member trigger; returns the concrete identifier (needed to
    leave). *)

val send :
  Transport.Host.t -> Rng.t -> group:group -> ?preference:string -> string -> unit
