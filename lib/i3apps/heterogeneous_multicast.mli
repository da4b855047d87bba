(** Heterogeneous multicast (Sec. III-B, Fig. 4(b)): receiver-driven
    service composition.

    All receivers subscribe to the same group id; a receiver that cannot
    consume the native format inserts [(g, [T; p])] — so packets reaching
    it first detour through transcoder [T], then follow its private
    trigger [p] — while native receivers simply insert [(g, addr)].  The
    sender transmits one stream and never learns who transcodes what.  The
    paper's demo plays one MPEG stream to an MPEG player and an H.263
    player via an MPEG-to-H.263 transcoder (Sec. IV-I, Fig. 7). *)

val subscribe_native : Transport.Host.t -> group:Id.t -> unit
(** Plain membership: [(g, addr)]. *)

val subscribe_via :
  Transport.Host.t -> Rng.t -> group:Id.t -> service:Id.t -> Id.t
(** Transcoded membership: creates a private id [p], inserts
    [(g, [service; p])] and [(p, addr)], returns [p]. *)

val publish : Transport.Host.t -> group:Id.t -> string -> unit
