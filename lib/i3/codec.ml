module L = Wire.Layout
module Io = Wire.Io

(* --- building blocks --- *)

(* Trigger: id32 + owner u64 + stack (u8 count, 1..4, then entries).
   The depth check happens in [Packet.read_stack] *before* we call
   [Trigger.make], whose own validation raises. *)

let put_trigger buf (t : Trigger.t) =
  Io.put_id buf t.id;
  Io.put_u64 buf t.owner;
  Packet.put_stack buf t.stack

let read_trigger r =
  let id = Io.id r "trigger id" in
  let owner = Io.u64 r "trigger owner" in
  Trigger.make ~id ~owner ~stack:(Packet.read_stack r)

(* --- telemetry snapshot building blocks ---

   A registry sample: name, labels (u8 count, str16 k/v pairs), then a
   kind tag — 0 counter (u64), 1 gauge (f64), 2 histogram (u32 count +
   f64 sum/p50/p90/p99/max).  Percentiles of an empty histogram are
   pinned to 0. by Obs.Metrics, so every float here is comparable
   structurally after a roundtrip. *)

let put_sample buf (s : Obs.Metrics.sample) =
  if List.length s.labels > L.max_stats_labels then
    invalid_arg "I3.Codec: too many sample labels";
  Io.put_str16 buf s.name;
  Io.put_u8 buf (List.length s.labels);
  List.iter
    (fun (k, v) ->
      Io.put_str16 buf k;
      Io.put_str16 buf v)
    s.labels;
  match s.value with
  | Obs.Metrics.Counter c ->
      Io.put_u8 buf 0;
      Io.put_u64 buf c
  | Obs.Metrics.Gauge g ->
      Io.put_u8 buf 1;
      Io.put_f64 buf g
  | Obs.Metrics.Histogram { count; sum; p50; p90; p99; max } ->
      Io.put_u8 buf 2;
      Io.put_u32 buf count;
      Io.put_f64 buf sum;
      Io.put_f64 buf p50;
      Io.put_f64 buf p90;
      Io.put_f64 buf p99;
      Io.put_f64 buf max

let read_sample r : Obs.Metrics.sample =
  let name = Io.str16 r "sample name" in
  let labels =
    Io.list_of r ~count:(Io.u8 r "label count") ~max:L.max_stats_labels
      "labels" (fun r ->
        let k = Io.str16 r "label key" in
        (k, Io.str16 r "label value"))
  in
  let value =
    match Io.u8 r "sample kind" with
    | 0 -> Obs.Metrics.Counter (Io.u64 r "counter value")
    | 1 -> Obs.Metrics.Gauge (Io.f64 r "gauge value")
    | 2 ->
        let count = Io.u32 r "histogram count" in
        let sum = Io.f64 r "histogram sum" in
        let p50 = Io.f64 r "histogram p50" in
        let p90 = Io.f64 r "histogram p90" in
        let p99 = Io.f64 r "histogram p99" in
        let max = Io.f64 r "histogram max" in
        Obs.Metrics.Histogram { count; sum; p50; p90; p99; max }
    | _ -> Io.fail "bad sample kind tag"
  in
  { Obs.Metrics.name; labels; value }

let trace_kind_tag : Obs.Trace.kind -> int = function
  | Send -> 0
  | Enqueue -> 1
  | Relay -> 2
  | Cache_hit -> 3
  | Trigger_match -> 4
  | Deliver -> 5
  | Drop _ -> 6
  | Op _ -> 7
  | Note _ -> 8
  | Done _ -> 9

let put_trace_event buf (e : Obs.Trace.event) =
  Io.put_u64 buf e.trace;
  Io.put_f64 buf e.time;
  Io.put_u32 buf e.site;
  Io.put_u8 buf (trace_kind_tag e.kind);
  match e.kind with
  | Drop text | Note text | Done text -> Io.put_str16 buf text
  | Op { op; parent } ->
      Io.put_u64 buf parent;
      Io.put_str16 buf op
  | Send | Enqueue | Relay | Cache_hit | Trigger_match | Deliver -> ()

let read_trace_event r : Obs.Trace.event =
  let trace = Io.u64 r "trace id" in
  let time = Io.f64 r "event time" in
  let site = Io.u32 r "event site" in
  let kind =
    match Io.u8 r "event kind" with
    | 0 -> Obs.Trace.Send
    | 1 -> Obs.Trace.Enqueue
    | 2 -> Obs.Trace.Relay
    | 3 -> Obs.Trace.Cache_hit
    | 4 -> Obs.Trace.Trigger_match
    | 5 -> Obs.Trace.Deliver
    | 6 -> Obs.Trace.Drop (Io.str16 r "drop cause")
    | 7 ->
        let parent = Io.u64 r "op parent" in
        Obs.Trace.Op { op = Io.str16 r "op name"; parent }
    | 8 -> Obs.Trace.Note (Io.str16 r "op note")
    | 9 -> Obs.Trace.Done (Io.str16 r "op status")
    | _ -> Io.fail "bad trace event kind tag"
  in
  { Obs.Trace.trace; time; site; kind }

(* --- messages --- *)

let kind_of : Message.t -> int = function
  | Data _ -> assert false (* a data packet is its own frame *)
  | Insert _ -> L.kind_insert
  | Remove _ -> L.kind_remove
  | Challenge _ -> L.kind_challenge
  | Insert_ack _ -> L.kind_insert_ack
  | Cache_info _ -> L.kind_cache_info
  | Cache_push _ -> L.kind_cache_push
  | Pushback _ -> L.kind_pushback
  | Replica _ -> L.kind_replica
  | Deliver _ -> L.kind_deliver
  | Ping _ -> L.kind_ping
  | Pong _ -> L.kind_pong
  | Stats_request _ -> L.kind_stats_request
  | Stats_response _ -> L.kind_stats_response

(* A Deliver, the frame a multicast fan-out encodes once per member, is
   written at computed offsets into one [Bytes] of its exact length, as
   [Packet.encode] writes a data packet: preamble, the residual stack
   (which, unlike a data packet's, may be empty), the trace id, then
   the payload behind its u32 length.  The bytes are those the [Buffer]
   writers would produce. *)
let encode_deliver ~stack ~payload ~trace =
  let len = String.length payload in
  if len > L.max_data_payload then
    invalid_arg "I3.Codec: deliver payload too long";
  let off_trace = L.preamble_bytes + Packet.stack_field_length stack in
  let off_payload = off_trace + 8 + 4 in
  let b = Bytes.create (off_payload + len) in
  Io.set_preamble b L.kind_deliver;
  ignore (Packet.set_stack b L.preamble_bytes stack);
  Bytes.set_int64_be b off_trace (Int64.of_int trace);
  Bytes.set_int32_be b (off_trace + 8) (Int32.of_int len);
  Bytes.blit_string payload 0 b off_payload len;
  Bytes.unsafe_to_string b

let encode (m : Message.t) =
  match m with
  | Data p ->
      (* The 48-byte packet header doubles as the frame: its flags byte
         (offset 3) is always < [Wire.Layout.first_kind], which is what
         lets [decode] tell packets and control messages apart with zero
         framing overhead. *)
      Packet.encode p
  | Deliver { stack; payload; trace } -> encode_deliver ~stack ~payload ~trace
  | _ ->
      let buf = Buffer.create 96 in
      Io.put_preamble buf (kind_of m);
      (match m with
      | Data _ | Deliver _ -> assert false
      | Insert { trigger; token } ->
          put_trigger buf trigger;
          (match token with
          | None -> Io.put_u8 buf 0
          | Some tok ->
              Io.put_u8 buf 1;
              Io.put_str16 buf tok)
      | Remove { trigger } -> put_trigger buf trigger
      | Challenge { trigger; token } ->
          put_trigger buf trigger;
          Io.put_str16 buf token
      | Insert_ack { trigger; server } ->
          put_trigger buf trigger;
          Io.put_u64 buf server
      | Cache_info { prefix; server } ->
          Io.put_id buf prefix;
          Io.put_u64 buf server
      | Cache_push { triggers } ->
          if List.length triggers > L.max_trigger_batch then
            invalid_arg "I3.Codec: cache-push batch too large";
          Io.put_u16 buf (List.length triggers);
          List.iter
            (fun (t, lifetime) ->
              put_trigger buf t;
              Io.put_f64 buf lifetime)
            triggers
      | Pushback { id; dead } ->
          Io.put_id buf id;
          Io.put_id buf dead
      | Replica { trigger; lifetime } ->
          put_trigger buf trigger;
          Io.put_f64 buf lifetime
      | Ping { nonce } -> Io.put_u64 buf nonce
      | Pong { nonce; server; triggers; uptime_ms } ->
          Io.put_u64 buf nonce;
          Io.put_u64 buf server;
          Io.put_u32 buf triggers;
          Io.put_f64 buf uptime_ms
      | Stats_request { nonce; prefix; drain } ->
          Io.put_u64 buf nonce;
          Io.put_str16 buf prefix;
          Io.put_u8 buf (if drain then 1 else 0)
      | Stats_response { nonce; server; samples; events } ->
          if List.length samples > L.max_stats_samples then
            invalid_arg "I3.Codec: stats snapshot too large";
          if List.length events > L.max_trace_drain then
            invalid_arg "I3.Codec: trace drain too large";
          Io.put_u64 buf nonce;
          Io.put_u64 buf server;
          (* The snapshot travels as a versioned, length-prefixed blob so
             a collector can reject a layout it does not understand (and
             skip the whole blob) instead of misparsing it. *)
          Io.put_u8 buf L.stats_snapshot_version;
          let blob = Buffer.create 512 in
          Io.put_u16 blob (List.length samples);
          List.iter (put_sample blob) samples;
          Io.put_u16 blob (List.length events);
          List.iter (put_trace_event blob) events;
          Io.put_str32 buf (Buffer.contents blob));
      Buffer.contents buf

let read_body kind r : Message.t =
  if kind = L.kind_insert then
    let trigger = read_trigger r in
    let token =
      match Io.u8 r "token presence" with
      | 0 -> None
      | 1 -> Some (Io.str16 r "token")
      | _ -> Io.fail "bad token presence tag"
    in
    Insert { trigger; token }
  else if kind = L.kind_remove then Remove { trigger = read_trigger r }
  else if kind = L.kind_challenge then
    let trigger = read_trigger r in
    Challenge { trigger; token = Io.str16 r "token" }
  else if kind = L.kind_insert_ack then
    let trigger = read_trigger r in
    Insert_ack { trigger; server = Io.u64 r "server addr" }
  else if kind = L.kind_cache_info then
    let prefix = Io.id r "prefix id" in
    Cache_info { prefix; server = Io.u64 r "server addr" }
  else if kind = L.kind_cache_push then
    let count = Io.u16 r "trigger batch count" in
    let triggers =
      Io.list_of r ~count ~max:L.max_trigger_batch "trigger batch" (fun r ->
          let t = read_trigger r in
          (t, Io.f64 r "trigger lifetime"))
    in
    Cache_push { triggers }
  else if kind = L.kind_pushback then
    let id = Io.id r "pushback id" in
    Pushback { id; dead = Io.id r "dead id" }
  else if kind = L.kind_replica then
    let trigger = read_trigger r in
    Replica { trigger; lifetime = Io.f64 r "replica lifetime" }
  else if kind = L.kind_deliver then
    let stack = Packet.read_stack ~min_depth:0 r in
    let trace = Io.u64 r "trace id" in
    Deliver { stack; trace; payload = Io.str32 r "payload" }
  else if kind = L.kind_ping then Ping { nonce = Io.u64 r "ping nonce" }
  else if kind = L.kind_pong then
    let nonce = Io.u64 r "pong nonce" in
    let server = Io.u64 r "pong server" in
    let triggers = Io.u32 r "pong triggers" in
    Pong { nonce; server; triggers; uptime_ms = Io.f64 r "pong uptime" }
  else if kind = L.kind_stats_request then
    let nonce = Io.u64 r "stats nonce" in
    let prefix = Io.str16 r "stats prefix" in
    let drain =
      match Io.u8 r "drain flag" with
      | 0 -> false
      | 1 -> true
      | _ -> Io.fail "bad drain flag"
    in
    Stats_request { nonce; prefix; drain }
  else if kind = L.kind_stats_response then (
    let nonce = Io.u64 r "stats nonce" in
    let server = Io.u64 r "stats server" in
    if Io.u8 r "snapshot version" <> L.stats_snapshot_version then
      Io.fail "unsupported stats snapshot version";
    (* Zero-copy: bound a sub-cursor to the blob's range of the frame
       instead of materializing the blob as its own string. *)
    let samples, events =
      Io.sub r (Io.u32 r "snapshot blob") "snapshot blob" (fun br ->
          let samples =
            Io.list_of br ~count:(Io.u16 br "sample count")
              ~max:L.max_stats_samples "samples" read_sample
          in
          ( samples,
            Io.list_of br ~count:(Io.u16 br "trace event count")
              ~max:L.max_trace_drain "trace events" read_trace_event ))
    in
    Stats_response { nonce; server; samples; events })
  else Io.fail "unknown i3 message kind"

let decode s =
  if String.length s > L.off_kind && Char.code s.[L.off_kind] < L.first_kind
  then
    (* Data-packet flags where a kind byte would be: the whole frame is
       a packet, and [Packet.decode] checks its preamble itself. *)
    Result.map (fun p -> Message.Data p) (Packet.decode s)
  else Io.parse s (fun r -> read_body (Io.preamble r) r)
