(* The single source of truth for every on-the-wire constant.  {!Packet}
   reads and writes the 48-byte data header at the offsets below;
   {!Wire.Io} writes and checks the 4-byte preamble every frame opens
   with; the {!I3.Codec} / {!Chord.Codec} control messages carry no
   48-byte header, only that preamble and a kind-specific body.  The UDP
   daemon and the observability docs read tags from here too — nothing
   else is allowed to hard-code a byte position. *)

let magic0 = '\x69' (* 'i' *)
let magic1 = '\x33' (* '3' *)
let version = '\x01'

(* --- the 48-byte data-packet common header (paper Sec. V-C) ---

     0..1   magic "i3"
     2      version
     3      flags (< 0x10; >= 0x10 at this offset means a control kind)
     4      stack entry count
     5      ttl
     6..7   reserved (0)
     8..11  payload length, big-endian
     12..19 sender address (or 0)
     20..27 previous-hop server address (or 0)
     28..35 trace id (0 = untraced)
     36..47 reserved (0) *)

let header_bytes = 48
let off_magic = 0
let off_stack_count = 4
let off_ttl = 5
let off_payload_len = 8
let off_sender = 12
let off_prev_addr = 20
let off_trace = 28

(* Packet header flag bits (all < [first_kind], see below). *)
let flag_refresh = 1
let flag_match_required = 2
let flag_sender = 4
let flag_prev_trigger = 8

(* Identifier-stack entry tags and their encoded sizes. *)
let tag_sid = '\x00'
let tag_saddr = '\x01'
let addr_bytes = 8
let id_bytes = Id.byte_length
let sid_entry_bytes = 1 + id_bytes
let saddr_entry_bytes = 1 + addr_bytes
let max_stack_depth = 4

(* --- control-message preamble ---

   Control messages share the packet's first three bytes
   [magic0; magic1; version] and put a {e kind} tag where the packet
   header keeps its flags (offset 3).  Packet flags fit in a nibble, so
   any byte >= [first_kind] at that offset unambiguously selects a
   control decoder: a data packet on the wire IS its 48-byte-header
   encoding, with zero framing overhead. *)

let preamble_bytes = 4
let off_kind = 3
let first_kind = 0x10

(* i3 control-protocol kinds (I3.Message). *)
let kind_insert = 0x10
let kind_remove = 0x11
let kind_challenge = 0x12
let kind_insert_ack = 0x13
let kind_cache_info = 0x14
let kind_cache_push = 0x15
let kind_pushback = 0x16
let kind_replica = 0x17
let kind_deliver = 0x18
let kind_ping = 0x19
let kind_pong = 0x1a
let kind_stats_request = 0x1b
let kind_stats_response = 0x1c

(* Chord RPC kinds (Chord.Protocol). *)
let kind_lookup_step = 0x20
let kind_lookup_reply = 0x21
let kind_get_state = 0x22
let kind_state = 0x23
let kind_notify = 0x24

(* Human name of a frame's kind byte (the byte at [off_kind]); a byte
   below [first_kind] is a data packet's flags, so the frame is data.
   Used for per-kind traffic counters and rendered telemetry — never for
   dispatch, which compares the numeric tags directly. *)
let kind_name k =
  if k < first_kind then "data"
  else if k = kind_insert then "insert"
  else if k = kind_remove then "remove"
  else if k = kind_challenge then "challenge"
  else if k = kind_insert_ack then "insert_ack"
  else if k = kind_cache_info then "cache_info"
  else if k = kind_cache_push then "cache_push"
  else if k = kind_pushback then "pushback"
  else if k = kind_replica then "replica"
  else if k = kind_deliver then "deliver"
  else if k = kind_ping then "ping"
  else if k = kind_pong then "pong"
  else if k = kind_stats_request then "stats_request"
  else if k = kind_stats_response then "stats_response"
  else if k = kind_lookup_step then "lookup_step"
  else if k = kind_lookup_reply then "lookup_reply"
  else if k = kind_get_state then "get_state"
  else if k = kind_state then "state"
  else if k = kind_notify then "notify"
  else "unknown"

(* Sanity bounds shared by decoders: a peer list (successor chains,
   Notify gossip) or a cache-push trigger batch may never claim more
   entries than these, whatever the length field says — a corrupted
   count must fail cleanly instead of provoking a giant allocation. *)
let max_peer_list = 32
let max_trigger_batch = 4096

(* --- telemetry snapshot bounds (kind_stats_request / _response) ---

   A stats response carries a versioned, length-prefixed snapshot of a
   registry slice plus (optionally) a drain of the trace ring.  The
   version byte lets a newer scraper reject a snapshot blob it does not
   understand instead of misparsing it; the caps bound both what an
   encoder may emit (so one response always fits a datagram) and what a
   decoder may allocate from a corrupted count field. *)
let stats_snapshot_version = 1
let max_stats_samples = 512
let max_trace_drain = 512
let max_stats_labels = 8

(* --- datagram maxima ---

   The transports carry one frame per datagram, so the biggest frame any
   codec may legally produce is bounded by the biggest payload an IPv4
   UDP datagram can carry: 65535 (the IP total-length field) minus the
   20-byte IP header and the 8-byte UDP header = 65507 — a bound the
   kernel enforces with EMSGSIZE, so anything larger is unsendable, not
   merely unwise.  [max_data_payload] is the largest i3 payload that
   still fits when the identifier stack is maximally deep and every
   entry is the wide kind ([tag_sid]): receive buffers sized from these
   constants can never truncate a legal frame. *)
let max_datagram = 65535 - 20 - 8
let max_stack_bytes = max_stack_depth * sid_entry_bytes
let max_data_payload = max_datagram - header_bytes - max_stack_bytes
