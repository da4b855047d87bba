module L = Wire.Layout
module Io = Wire.Io

let ( let* ) = Io.( let* )

(* --- building blocks --- *)

(* Trigger: id32 + owner u64 + stack (u8 count, 1..4, then entries).
   The depth check happens in [Packet.read_stack] *before* we call
   [Trigger.make], whose own validation raises. *)

let put_trigger buf (t : Trigger.t) =
  Buffer.add_string buf (Id.to_raw_string t.id);
  Io.put_u64 buf (Int64.of_int t.owner);
  Packet.put_stack buf t.stack

let read_trigger r =
  let* raw = Io.take r Id.byte_length "trigger id" in
  let* owner = Io.u64 r "trigger owner" in
  let* stack = Packet.read_stack r in
  Ok
    (Trigger.make ~id:(Id.of_raw_string raw) ~stack
       ~owner:(Int64.to_int owner))

let put_addr buf a = Io.put_u64 buf (Int64.of_int a)

let read_addr r what =
  let* a = Io.u64 r what in
  Ok (Int64.to_int a)

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
      Io.put_u64 buf (Int64.of_int c)
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

let read_sample r : (Obs.Metrics.sample, string) result =
  let* name = Io.str16 r "sample name" in
  let* nlabels = Io.u8 r "label count" in
  let* labels =
    Io.list_of r ~count:nlabels ~max:L.max_stats_labels "labels" (fun r ->
        let* k = Io.str16 r "label key" in
        let* v = Io.str16 r "label value" in
        Ok (k, v))
  in
  let* tag = Io.u8 r "sample kind" in
  let* value =
    match tag with
    | 0 ->
        let* c = Io.u64 r "counter value" in
        Ok (Obs.Metrics.Counter (Int64.to_int c))
    | 1 ->
        let* g = Io.f64 r "gauge value" in
        Ok (Obs.Metrics.Gauge g)
    | 2 ->
        let* count = Io.u32 r "histogram count" in
        let* sum = Io.f64 r "histogram sum" in
        let* p50 = Io.f64 r "histogram p50" in
        let* p90 = Io.f64 r "histogram p90" in
        let* p99 = Io.f64 r "histogram p99" in
        let* max = Io.f64 r "histogram max" in
        Ok (Obs.Metrics.Histogram { count; sum; p50; p90; p99; max })
    | _ -> Error "bad sample kind tag"
  in
  Ok { Obs.Metrics.name; labels; value }

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
  Io.put_u64 buf (Int64.of_int e.trace);
  Io.put_f64 buf e.time;
  Io.put_u32 buf e.site;
  Io.put_u8 buf (trace_kind_tag e.kind);
  match e.kind with
  | Drop text | Note text | Done text -> Io.put_str16 buf text
  | Op { op; parent } ->
      Io.put_u64 buf (Int64.of_int parent);
      Io.put_str16 buf op
  | Send | Enqueue | Relay | Cache_hit | Trigger_match | Deliver -> ()

let read_trace_event r : (Obs.Trace.event, string) result =
  let* trace = Io.u64 r "trace id" in
  let* time = Io.f64 r "event time" in
  let* site = Io.u32 r "event site" in
  let* tag = Io.u8 r "event kind" in
  let* kind =
    match tag with
    | 0 -> Ok Obs.Trace.Send
    | 1 -> Ok Obs.Trace.Enqueue
    | 2 -> Ok Obs.Trace.Relay
    | 3 -> Ok Obs.Trace.Cache_hit
    | 4 -> Ok Obs.Trace.Trigger_match
    | 5 -> Ok Obs.Trace.Deliver
    | 6 ->
        let* cause = Io.str16 r "drop cause" in
        Ok (Obs.Trace.Drop cause)
    | 7 ->
        let* parent = Io.u64 r "op parent" in
        let* op = Io.str16 r "op name" in
        Ok (Obs.Trace.Op { op; parent = Int64.to_int parent })
    | 8 ->
        let* text = Io.str16 r "op note" in
        Ok (Obs.Trace.Note text)
    | 9 ->
        let* status = Io.str16 r "op status" in
        Ok (Obs.Trace.Done status)
    | _ -> Error "bad trace event kind tag"
  in
  Ok { Obs.Trace.trace = Int64.to_int trace; time; site; kind }

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

let encode (m : Message.t) =
  match m with
  | Data p ->
      (* The 48-byte packet header doubles as the frame: its flags byte
         (offset 3) is always < [Wire.Layout.first_kind], which is what
         lets [decode] tell packets and control messages apart with zero
         framing overhead. *)
      Packet.encode p
  | _ ->
      let buf = Buffer.create 96 in
      Buffer.add_char buf L.magic0;
      Buffer.add_char buf L.magic1;
      Buffer.add_char buf L.version;
      Io.put_u8 buf (kind_of m);
      (match m with
      | Data _ -> assert false
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
          put_addr buf server
      | Cache_info { prefix; server } ->
          Buffer.add_string buf (Id.to_raw_string prefix);
          put_addr buf server
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
          Buffer.add_string buf (Id.to_raw_string id);
          Buffer.add_string buf (Id.to_raw_string dead)
      | Replica { trigger; lifetime } ->
          put_trigger buf trigger;
          Io.put_f64 buf lifetime
      | Deliver { stack; payload; trace } ->
          (* Unlike a data packet's stack, the residual stack handed to
             the application may legitimately be empty. *)
          Packet.put_stack buf stack;
          Io.put_u64 buf (Int64.of_int trace);
          Io.put_str32 buf payload
      | Ping { nonce } -> Io.put_u64 buf (Int64.of_int nonce)
      | Pong { nonce; server; triggers; uptime_ms } ->
          Io.put_u64 buf (Int64.of_int nonce);
          put_addr buf server;
          Io.put_u32 buf triggers;
          Io.put_f64 buf uptime_ms
      | Stats_request { nonce; prefix; drain } ->
          Io.put_u64 buf (Int64.of_int nonce);
          Io.put_str16 buf prefix;
          Io.put_u8 buf (if drain then 1 else 0)
      | Stats_response { nonce; server; samples; events } ->
          if List.length samples > L.max_stats_samples then
            invalid_arg "I3.Codec: stats snapshot too large";
          if List.length events > L.max_trace_drain then
            invalid_arg "I3.Codec: trace drain too large";
          Io.put_u64 buf (Int64.of_int nonce);
          put_addr buf server;
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

let read_body kind r : (Message.t, string) result =
  if kind = L.kind_insert then
    let* trigger = read_trigger r in
    let* present = Io.u8 r "token presence" in
    let* token =
      match present with
      | 0 -> Ok None
      | 1 ->
          let* tok = Io.str16 r "token" in
          Ok (Some tok)
      | _ -> Error "bad token presence tag"
    in
    Ok (Message.Insert { trigger; token })
  else if kind = L.kind_remove then
    let* trigger = read_trigger r in
    Ok (Message.Remove { trigger })
  else if kind = L.kind_challenge then
    let* trigger = read_trigger r in
    let* token = Io.str16 r "token" in
    Ok (Message.Challenge { trigger; token })
  else if kind = L.kind_insert_ack then
    let* trigger = read_trigger r in
    let* server = read_addr r "server addr" in
    Ok (Message.Insert_ack { trigger; server })
  else if kind = L.kind_cache_info then
    let* raw = Io.take r Id.byte_length "prefix id" in
    let* server = read_addr r "server addr" in
    Ok (Message.Cache_info { prefix = Id.of_raw_string raw; server })
  else if kind = L.kind_cache_push then
    let* count = Io.u16 r "trigger batch count" in
    let* triggers =
      Io.list_of r ~count ~max:L.max_trigger_batch "trigger batch" (fun r ->
          let* t = read_trigger r in
          let* lifetime = Io.f64 r "trigger lifetime" in
          Ok (t, lifetime))
    in
    Ok (Message.Cache_push { triggers })
  else if kind = L.kind_pushback then
    let* raw_id = Io.take r Id.byte_length "pushback id" in
    let* raw_dead = Io.take r Id.byte_length "dead id" in
    Ok
      (Message.Pushback
         { id = Id.of_raw_string raw_id; dead = Id.of_raw_string raw_dead })
  else if kind = L.kind_replica then
    let* trigger = read_trigger r in
    let* lifetime = Io.f64 r "replica lifetime" in
    Ok (Message.Replica { trigger; lifetime })
  else if kind = L.kind_deliver then
    let* stack = Packet.read_stack ~min_depth:0 r in
    let* trace = Io.u64 r "trace id" in
    let* payload = Io.str32 r "payload" in
    Ok (Message.Deliver { stack; payload; trace = Int64.to_int trace })
  else if kind = L.kind_ping then
    let* nonce = Io.u64 r "ping nonce" in
    Ok (Message.Ping { nonce = Int64.to_int nonce })
  else if kind = L.kind_pong then
    let* nonce = Io.u64 r "pong nonce" in
    let* server = read_addr r "pong server" in
    let* triggers = Io.u32 r "pong triggers" in
    let* uptime_ms = Io.f64 r "pong uptime" in
    Ok (Message.Pong { nonce = Int64.to_int nonce; server; triggers; uptime_ms })
  else if kind = L.kind_stats_request then
    let* nonce = Io.u64 r "stats nonce" in
    let* prefix = Io.str16 r "stats prefix" in
    let* drain = Io.u8 r "drain flag" in
    let* drain =
      match drain with
      | 0 -> Ok false
      | 1 -> Ok true
      | _ -> Error "bad drain flag"
    in
    Ok (Message.Stats_request { nonce = Int64.to_int nonce; prefix; drain })
  else if kind = L.kind_stats_response then
    let* nonce = Io.u64 r "stats nonce" in
    let* server = read_addr r "stats server" in
    let* version = Io.u8 r "snapshot version" in
    let* () =
      if version = L.stats_snapshot_version then Ok ()
      else Error "unsupported stats snapshot version"
    in
    (* Zero-copy: bound a sub-cursor to the blob's range of the frame
       instead of materializing the blob as its own string. *)
    let* blob_len = Io.u32 r "snapshot blob" in
    let* br = Io.sub_reader r blob_len "snapshot blob" in
    let* nsamples = Io.u16 br "sample count" in
    let* samples =
      Io.list_of br ~count:nsamples ~max:L.max_stats_samples "samples"
        read_sample
    in
    let* nevents = Io.u16 br "trace event count" in
    let* events =
      Io.list_of br ~count:nevents ~max:L.max_trace_drain "trace events"
        read_trace_event
    in
    let* () = Io.expect_end br in
    Ok
      (Message.Stats_response
         { nonce = Int64.to_int nonce; server; samples; events })
  else Error "unknown i3 message kind"

let decode s =
  let r = Io.reader s in
  let* () = Io.need r L.preamble_bytes "preamble" in
  if Char.code s.[L.off_kind] < L.first_kind then
    (* Data-packet flags where a kind byte would be: the whole frame is
       a packet.  [Packet.decode] re-checks magic/version itself. *)
    let* p = Packet.decode s in
    Ok (Message.Data p)
  else
    let* () = Io.expect_char r L.magic0 "magic" in
    let* () = Io.expect_char r L.magic1 "magic" in
    let* () = Io.expect_char r L.version "version" in
    let* kind = Io.u8 r "kind" in
    let* m = read_body kind r in
    let* () = Io.expect_end r in
    Ok m
