(* Wire-format coverage: generator-driven roundtrips for every message
   kind (i3 + Chord), negative decodes for truncation / depth / tag
   corruption, a deterministic seeded mutation fuzzer over the whole
   corpus (decoders must return [Error] — never raise, never
   over-read), the [Wire.Io] cursor behind [Wire.Io.parse], the data
   path's allocation per packet, and the byte-level [Transport.Sim]
   smoke test. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng0 = Rng.of_int 4242

(* --- generators --- *)

let gen_id =
  QCheck2.Gen.(
    map (fun n -> Id.name_hash (string_of_int n)) (int_range 0 1_000_000))

let gen_addr = QCheck2.Gen.int_range 0 0xffff_ffff
let gen_entry =
  QCheck2.Gen.(
    oneof
      [
        map (fun id -> I3.Packet.Sid id) gen_id;
        map (fun a -> I3.Packet.Saddr a) gen_addr;
      ])

let gen_stack depth_min =
  QCheck2.Gen.(
    int_range depth_min I3.Packet.max_stack_depth >>= fun n ->
    list_size (return n) gen_entry)

let gen_payload = QCheck2.Gen.(string_size (int_range 0 64))

let gen_packet =
  QCheck2.Gen.(
    gen_stack 1 >>= fun stack ->
    gen_payload >>= fun payload ->
    bool >>= fun refresh ->
    bool >>= fun match_required ->
    opt gen_addr >>= fun sender ->
    opt (pair gen_addr gen_id) >>= fun prev ->
    int_range 0 255 >>= fun ttl ->
    int_range 0 0xffffff >>= fun trace ->
    return
      {
        (I3.Packet.make ?sender ~trace ~stack ~payload ())
        with
        I3.Packet.refresh;
        match_required;
        prev_trigger = prev;
        ttl;
      })

let gen_trigger =
  QCheck2.Gen.(
    gen_id >>= fun id ->
    gen_stack 1 >>= fun stack ->
    gen_addr >>= fun owner -> return (I3.Trigger.make ~id ~stack ~owner))

let gen_token = QCheck2.Gen.(string_size (int_range 0 32))
let gen_lifetime = QCheck2.Gen.(map float_of_int (int_range 0 100_000))

(* Stats snapshots: all floats drawn finite (the codec carries IEEE
   doubles bit-exactly, but [nan <> nan] would break [=] roundtrips) and
   label lists within [Wire.Layout.max_stats_labels] (the encoder
   rejects wider ones by design). *)
let gen_finite = QCheck2.Gen.(map (fun n -> float_of_int n /. 16.) (int_range (-1_000_000) 1_000_000))
let gen_label = QCheck2.Gen.(pair (string_size (int_range 0 12)) (string_size (int_range 0 12)))

let gen_sample =
  QCheck2.Gen.(
    string_size (int_range 1 24) >>= fun name ->
    list_size (int_range 0 Wire.Layout.max_stats_labels) gen_label
    >>= fun labels ->
    oneof
      [
        map (fun c -> Obs.Metrics.Counter c) (int_range 0 1_000_000_000);
        map (fun g -> Obs.Metrics.Gauge g) gen_finite;
        (int_range 0 1_000_000 >>= fun count ->
         gen_finite >>= fun sum ->
         gen_finite >>= fun p50 ->
         gen_finite >>= fun p90 ->
         gen_finite >>= fun p99 ->
         gen_finite >>= fun max ->
         return (Obs.Metrics.Histogram { count; sum; p50; p90; p99; max }));
      ]
    >>= fun value -> return { Obs.Metrics.name; labels; value })

let gen_trace_event =
  QCheck2.Gen.(
    int_range 1 0xfff_ffff >>= fun trace ->
    gen_finite >>= fun time ->
    int_range 0 0xffff_ffff >>= fun site ->
    oneof
      [
        oneofl
          Obs.Trace.
            [ Send; Enqueue; Relay; Cache_hit; Trigger_match; Deliver ];
        map (fun c -> Obs.Trace.Drop c) (string_size (int_range 0 16));
        (string_size (int_range 0 16) >>= fun op ->
         int_range 0 0xfff_ffff >>= fun parent ->
         return (Obs.Trace.Op { op; parent }));
        map (fun n -> Obs.Trace.Note n) (string_size (int_range 0 16));
        map (fun d -> Obs.Trace.Done d) (string_size (int_range 0 16));
      ]
    >>= fun kind -> return { Obs.Trace.trace; time; site; kind })

let gen_stats_request =
  QCheck2.Gen.(
    int_range 0 0xffffff >>= fun nonce ->
    string_size (int_range 0 24) >>= fun prefix ->
    bool >>= fun drain ->
    return (I3.Message.Stats_request { nonce; prefix; drain }))

let gen_stats_response =
  QCheck2.Gen.(
    int_range 0 0xffffff >>= fun nonce ->
    gen_addr >>= fun server ->
    list_size (int_range 0 8) gen_sample >>= fun samples ->
    list_size (int_range 0 8) gen_trace_event >>= fun events ->
    return (I3.Message.Stats_response { nonce; server; samples; events }))

let gen_message =
  QCheck2.Gen.(
    oneof
      [
        map (fun p -> I3.Message.Data p) gen_packet;
        (gen_trigger >>= fun trigger ->
         opt gen_token >>= fun token ->
         return (I3.Message.Insert { trigger; token }));
        map (fun trigger -> I3.Message.Remove { trigger }) gen_trigger;
        (gen_trigger >>= fun trigger ->
         gen_token >>= fun token ->
         return (I3.Message.Challenge { trigger; token }));
        (gen_trigger >>= fun trigger ->
         gen_addr >>= fun server ->
         return (I3.Message.Insert_ack { trigger; server }));
        (gen_id >>= fun prefix ->
         gen_addr >>= fun server ->
         return (I3.Message.Cache_info { prefix; server }));
        (list_size (int_range 0 5) (pair gen_trigger gen_lifetime)
        >>= fun triggers -> return (I3.Message.Cache_push { triggers }));
        (gen_id >>= fun id ->
         gen_id >>= fun dead -> return (I3.Message.Pushback { id; dead }));
        (gen_trigger >>= fun trigger ->
         gen_lifetime >>= fun lifetime ->
         return (I3.Message.Replica { trigger; lifetime }));
        (gen_stack 0 >>= fun stack ->
         gen_payload >>= fun payload ->
         int_range 0 0xffffff >>= fun trace ->
         return (I3.Message.Deliver { stack; payload; trace }));
        map (fun nonce -> I3.Message.Ping { nonce }) (int_range 0 0xffffff);
        (int_range 0 0xffffff >>= fun nonce ->
         gen_addr >>= fun server ->
         int_range 0 100_000 >>= fun triggers ->
         gen_lifetime >>= fun uptime_ms ->
         return (I3.Message.Pong { nonce; server; triggers; uptime_ms }));
        gen_stats_request;
        gen_stats_response;
      ])

let gen_peer =
  QCheck2.Gen.(
    gen_id >>= fun id ->
    gen_addr >>= fun addr -> return { Chord.Protocol.id; addr })

let gen_chord_msg =
  QCheck2.Gen.(
    oneof
      [
        (gen_id >>= fun key ->
         int_range 0 1_000_000 >>= fun token ->
         gen_addr >>= fun reply_to ->
         return (Chord.Protocol.Lookup_step { key; token; reply_to }));
        (int_range 0 1_000_000 >>= fun token ->
         gen_peer >>= fun p ->
         bool >>= fun done_ ->
         return
           (Chord.Protocol.Lookup_reply
              {
                token;
                result =
                  (if done_ then Chord.Protocol.Done p
                   else Chord.Protocol.Next p);
              }));
        (int_range 0 1_000_000 >>= fun token ->
         gen_addr >>= fun reply_to ->
         return (Chord.Protocol.Get_state { token; reply_to }));
        (int_range 0 1_000_000 >>= fun token ->
         gen_peer >>= fun self ->
         opt gen_peer >>= fun pred ->
         list_size (int_range 0 8) gen_peer >>= fun succs ->
         return (Chord.Protocol.State { token; self; pred; succs }));
        (gen_peer >>= fun who ->
         list_size (int_range 0 8) gen_peer >>= fun chain ->
         return (Chord.Protocol.Notify { who; chain }));
      ])

(* --- roundtrips --- *)

let test_message_roundtrip =
  qtest ~count:500 "i3 message roundtrip" gen_message (fun m ->
      match I3.Codec.decode (I3.Codec.encode m) with
      | Ok m' -> I3.Message.equal m m'
      | Error _ -> false)

let test_chord_roundtrip =
  qtest ~count:500 "chord message roundtrip" gen_chord_msg (fun m ->
      match Chord.Codec.decode (Chord.Codec.encode m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let test_data_frame_is_packet =
  qtest "Data frame = Packet.encode" gen_packet (fun p ->
      I3.Codec.encode (I3.Message.Data p) = I3.Packet.encode p)

(* --- negative decodes --- *)

let test_decode_rejects_prefixes () =
  let r = Rng.copy rng0 in
  let p =
    I3.Packet.make
      ~stack:[ I3.Packet.Sid (Id.random r); I3.Packet.Saddr 7 ]
      ~payload:"xyz" ()
  in
  let wire = I3.Packet.encode p in
  (* Truncations anywhere in the header or body must fail, not clamp. *)
  for cut = 0 to String.length wire - 1 do
    match I3.Packet.decode (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decode accepted a %d-byte prefix" cut
  done

let test_decode_rejects_deep_stack () =
  (* Hand-craft a header claiming more entries than max_stack_depth: the
     decoder must reject the count outright (not clamp), whatever bytes
     follow. *)
  let r = Rng.copy rng0 in
  let good =
    I3.Packet.encode
      (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random r) ] ~payload:"" ())
  in
  let deep = Bytes.of_string good in
  Bytes.set deep 4 (Char.chr (I3.Packet.max_stack_depth + 1));
  (match I3.Packet.decode (Bytes.to_string deep) with
  | Error e ->
      Alcotest.(check bool) "depth error" true (e = "bad stack depth")
  | Ok _ -> Alcotest.fail "decode clamped an over-deep stack");
  Bytes.set deep 4 '\x00';
  match I3.Packet.decode (Bytes.to_string deep) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted a zero-depth stack"

let test_decode_rejects_trailing () =
  let r = Rng.copy rng0 in
  let good =
    I3.Packet.encode
      (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random r) ] ~payload:"pp" ())
  in
  match I3.Packet.decode (good ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decode accepted trailing bytes"

(* --- deterministic mutation fuzzer ---

   Over a corpus of every message kind (both protocols): byte flips,
   truncations and length-field corruption, all drawn from a seeded
   [Util.Rng].  The decoders must return — [Ok] (a mutation may be
   semantically invisible) or [Error] — but never raise and never read
   out of bounds.  [I3_FUZZ_ITERS] scales the iteration count (CI runs
   >= 10_000). *)

let fuzz_iters =
  match Sys.getenv_opt "I3_FUZZ_ITERS" with
  | Some s -> (try max 1000 (int_of_string s) with _ -> 2_000)
  | None -> 2_000

(* Adversarial-but-valid frames a hostile peer could send: zero-TTL
   data, zero / negative / NaN lifetimes.  They must decode cleanly
   here (and the engine must survive them — see test_engine), so the
   fuzzer also mutates around these shapes. *)
let hostile rng =
  let tr () =
    I3.Trigger.to_host ~id:(Id.random rng) ~owner:(Rng.int rng 0xffff)
  in
  [
    I3.Codec.encode
      (I3.Message.Data
         {
           (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random rng) ] ~payload:"z"
              ())
           with
           I3.Packet.ttl = 0;
         });
    I3.Codec.encode (I3.Message.Replica { trigger = tr (); lifetime = 0. });
    I3.Codec.encode
      (I3.Message.Replica { trigger = tr (); lifetime = -30_000. });
    I3.Codec.encode
      (I3.Message.Replica { trigger = tr (); lifetime = Float.nan });
    I3.Codec.encode
      (I3.Message.Cache_push
         { triggers = [ (tr (), 0.); (tr (), -1.); (tr (), Float.nan) ] });
  ]

let corpus rng =
  let gen g = QCheck2.Gen.generate1 ~rand:(Random.State.make [| Rng.int rng 1_000_000 |]) g in
  List.concat
    [
      List.init 20 (fun _ -> I3.Codec.encode (gen gen_message));
      List.init 20 (fun _ -> Chord.Codec.encode (gen gen_chord_msg));
      List.init 10 (fun _ -> I3.Packet.encode (gen gen_packet));
      hostile rng;
    ]

let mutate rng s =
  let s = Bytes.of_string s in
  let n = Bytes.length s in
  match Rng.int rng 4 with
  | 0 when n > 0 ->
      (* flip a byte *)
      Bytes.set s (Rng.int rng n) (Char.chr (Rng.int rng 256));
      Bytes.to_string s
  | 1 when n > 0 ->
      (* truncate *)
      Bytes.sub_string s 0 (Rng.int rng n)
  | 2 ->
      (* extend with junk *)
      Bytes.to_string s ^ String.init (1 + Rng.int rng 8) (fun _ -> Char.chr (Rng.int rng 256))
  | _ when n > 4 ->
      (* corrupt a plausible length/count field: one of the first 16
         bytes gets an extreme value *)
      Bytes.set s (Rng.int rng (min 16 n)) (if Rng.int rng 2 = 0 then '\xff' else '\x00');
      Bytes.to_string s
  | _ -> Bytes.to_string s

let test_hostile_corpus_decodes () =
  let rng = Rng.of_int 424242 in
  List.iteri
    (fun i bytes ->
      match I3.Codec.decode bytes with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "hostile frame %d rejected: %s" i e)
    (hostile rng)

let test_mutation_fuzz () =
  let rng = Rng.of_int 20260807 in
  let corpus = Array.of_list (corpus rng) in
  let checked = ref 0 in
  for _ = 1 to fuzz_iters do
    let base = corpus.(Rng.int rng (Array.length corpus)) in
    let mutant = mutate rng base in
    (* Any raise here fails the test with a backtrace. *)
    (match I3.Codec.decode mutant with Ok _ | Error _ -> ());
    (match Chord.Codec.decode mutant with Ok _ | Error _ -> ());
    (match I3.Packet.decode mutant with Ok _ | Error _ -> ());
    incr checked
  done;
  Alcotest.(check int) "iterations" fuzz_iters !checked

(* --- Wire.Io primitives, through Wire.Io.parse --- *)

let check_parse what expected got =
  Alcotest.(check (result int string)) what expected got

let test_io_bounds () =
  let open Wire.Io in
  check_parse "u32 short" (Error "truncated x") (parse "ab" (fun r -> u32 r "x"));
  check_parse "u16" (Ok 0x6162) (parse "ab" (fun r -> u16 r "y"));
  check_parse "trailing" (Error "trailing bytes")
    (parse "abc" (fun r -> u16 r "y"));
  check_parse "raised message" (Error "boom") (parse "" (fun _ -> fail "boom"));
  check_parse "negative take" (Error "negative length for neg")
    (parse "abc" (fun r -> String.length (take r (-1) "neg")));
  (* A sub-reader stops at its own bound, not the frame's end, and must
     consume all of it. *)
  check_parse "sub bound" (Error "truncated w")
    (parse "\x00\x02abcdef" (fun r ->
         sub r (u16 r "n") "blob" (fun b -> u32 b "w")));
  check_parse "sub leftover" (Error "trailing bytes")
    (parse "\x00\x02ab" (fun r -> sub r (u16 r "n") "blob" (fun b -> u8 b "c")))

let test_io_list_cap () =
  let open Wire.Io in
  check_parse "count > max" (Error "bad count for peers")
    (parse (String.make 64 'x') (fun r ->
         List.length (list_of r ~count:40 ~max:32 "peers" (fun r -> u8 r "b"))))

(* --- allocation on the data path ---

   Minor-heap words per call, averaged over 10^4 calls: a 16 B data
   packet's decode, and decode + TTL-1 + encode (what a relaying server
   does to it).  The bounds leave headroom over the 48 and 77 words
   these take, and fail if a [result] or closure per field comes back
   (that costs hundreds of words). *)

let minor_words_per_call f =
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f (Sys.opaque_identity ())))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_data_path_allocation () =
  let frame =
    I3.Packet.encode
      (I3.Packet.make
         ~stack:[ I3.Packet.Sid (Id.name_hash "alloc") ]
         ~payload:(String.make 16 'x') ())
  in
  let decode () = I3.Packet.decode frame in
  let relay () =
    match I3.Packet.decode frame with
    | Ok p -> I3.Packet.encode { p with ttl = p.ttl - 1 }
    | Error e -> failwith e
  in
  let d = minor_words_per_call decode and r = minor_words_per_call relay in
  if d > 64. then Alcotest.failf "decode: %.1f minor words per call > 64" d;
  if r > 128. then
    Alcotest.failf "decode + TTL-1 + encode: %.1f minor words per call > 128" r

(* --- Sim byte transport --- *)

let test_sim_transport () =
  let engine = Engine.create () in
  let metrics = Obs.Metrics.create () in
  let rng = Rng.copy rng0 in
  let net =
    Net.create ~metrics engine ~rng ~latency:(fun _ _ -> 1.) ()
  in
  let a = Transport.Sim.attach net ~site:0 in
  let b = Transport.Sim.attach net ~site:0 in
  let got = ref [] in
  Transport.Sim.set_handler b (fun ~src bytes -> got := (src, bytes) :: !got);
  let frame = I3.Codec.encode (I3.Message.Data (I3.Packet.make ~stack:[ I3.Packet.Saddr 9 ] ~payload:"pp" ())) in
  Transport.Sim.send a ~dst:(Transport.Sim.local_addr b) frame;
  Engine.run_for engine 10.;
  match !got with
  | [ (src, bytes) ] ->
      Alcotest.(check int) "src" (Transport.Sim.local_addr a) src;
      Alcotest.(check string) "frame intact" frame bytes
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

(* --- codec-level negatives --- *)

let test_codec_negatives () =
  let expect_err what s =
    match I3.Codec.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected decode error")
  in
  expect_err "empty" "";
  expect_err "short preamble" "i3";
  expect_err "bad magic" "XX\x01\x10";
  expect_err "bad version" "i3\x02\x10";
  expect_err "unknown kind" "i3\x01\x7f";
  expect_err "chord kind on i3 codec" "i3\x01\x20";
  let wire =
    I3.Codec.encode
      (I3.Message.Pushback
         { id = Id.name_hash "a"; dead = Id.name_hash "b" })
  in
  expect_err "truncated body" (String.sub wire 0 (String.length wire - 1));
  expect_err "trailing bytes" (wire ^ "!");
  match Chord.Codec.decode "i3\x01\x10" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "i3 kind on chord codec: expected decode error"

(* --- status frames (telemetry plane) --- *)

let test_stats_roundtrip =
  qtest ~count:400 "stats frames roundtrip"
    QCheck2.Gen.(oneof [ gen_stats_request; gen_stats_response ])
    (fun m ->
      match I3.Codec.decode (I3.Codec.encode m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let sample_response =
  I3.Message.Stats_response
    {
      nonce = 7;
      server = 0xCAFE;
      samples =
        [
          {
            Obs.Metrics.name = "driver.frames";
            labels = [ ("instance", "127.0.0.1:4001") ];
            value = Obs.Metrics.Counter 3;
          };
          {
            Obs.Metrics.name = "driver.step_ms";
            labels = [];
            value =
              Obs.Metrics.Histogram
                { count = 2; sum = 3.; p50 = 1.; p90 = 2.; p99 = 2.; max = 2. };
          };
        ];
      events =
        [
          {
            Obs.Trace.trace = 9;
            time = 1.5;
            site = 4001;
            kind = Obs.Trace.Drop "ttl";
          };
        ];
    }

let test_stats_negatives () =
  let wire = I3.Codec.encode sample_response in
  (* Every strict prefix must fail: outer fields, the u32 blob length,
     and the blob's inner structure are all length-checked. *)
  for cut = 0 to String.length wire - 1 do
    match I3.Codec.decode (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "stats_response accepted a %d-byte prefix" cut
  done;
  (match I3.Codec.decode (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats_response accepted trailing bytes");
  (* Snapshot version byte sits after the preamble (4) + nonce (8) +
     server (8): an unknown version must be rejected, not guessed at. *)
  let b = Bytes.of_string wire in
  Bytes.set b 20 '\x02';
  (match I3.Codec.decode (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown snapshot version accepted");
  (* A request's drain flag is strictly 0/1. *)
  let req =
    I3.Codec.encode
      (I3.Message.Stats_request { nonce = 1; prefix = "engine."; drain = true })
  in
  let rb = Bytes.of_string req in
  Bytes.set rb (Bytes.length rb - 1) '\x07';
  match I3.Codec.decode (Bytes.to_string rb) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad drain flag accepted"

(* Control-plane operation events ride the same snapshot as packet hops:
   each kind round-trips, and a bad tag or a truncated field is refused. *)
let test_stats_operation_events () =
  let events =
    List.mapi
      (fun i kind -> { Obs.Trace.trace = 3 + i; time = 0.5; site = 0; kind })
      Obs.Trace.
        [
          Op { op = "chord.lookup"; parent = none };
          Op { op = "i3.first_packet"; parent = 77 };
          Note "ask addr=3 hop=0";
          Done "ok";
          Done "error:exhausted";
        ]
  in
  let m =
    I3.Message.Stats_response { nonce = 1; server = 2; samples = []; events }
  in
  let wire = I3.Codec.encode m in
  (match I3.Codec.decode wire with
  | Ok m' -> Alcotest.(check bool) "operation events round-trip" true (m = m')
  | Error e -> Alcotest.failf "operation events rejected: %s" e);
  for cut = 0 to String.length wire - 1 do
    match I3.Codec.decode (String.sub wire 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "operation events accepted a %d-byte prefix" cut
  done;
  (* The first event's kind tag follows its u64 id, f64 time and u32
     site, which sit after the preamble (4), nonce (8), server (8),
     version (1), blob length (4) and the two counts (2 + 2). *)
  let tag_at = 4 + 8 + 8 + 1 + 4 + 2 + 2 + 8 + 8 + 4 in
  Alcotest.(check int) "first event is an Op" 7 (Char.code wire.[tag_at]);
  let b = Bytes.of_string wire in
  Bytes.set b tag_at '\x0a';
  match I3.Codec.decode (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown event kind tag accepted"

let test_stats_encode_caps () =
  let sample =
    {
      Obs.Metrics.name = "m";
      labels = [];
      value = Obs.Metrics.Counter 1;
    }
  in
  let too_many =
    List.init (Wire.Layout.max_stats_samples + 1) (fun _ -> sample)
  in
  (match
     I3.Codec.encode
       (I3.Message.Stats_response
          { nonce = 1; server = 2; samples = too_many; events = [] })
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted > max_stats_samples");
  let wide =
    {
      sample with
      Obs.Metrics.labels =
        List.init
          (Wire.Layout.max_stats_labels + 1)
          (fun i -> (string_of_int i, "v"));
    }
  in
  match
    I3.Codec.encode
      (I3.Message.Stats_response
         { nonce = 1; server = 2; samples = [ wide ]; events = [] })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted > max_stats_labels"

let test_put_str32_guard () =
  let buf = Buffer.create 16 in
  let too_long = String.make (Wire.Layout.max_data_payload + 1) 'x' in
  (try
     Wire.Io.put_str32 buf too_long;
     Alcotest.fail "oversized put_str32 accepted"
   with Invalid_argument _ -> ());
  Wire.Io.put_str32 buf (String.make 8 'y');
  Alcotest.(check int) "in-range write lands" (4 + 8) (Buffer.length buf)

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          test_message_roundtrip;
          test_chord_roundtrip;
          test_data_frame_is_packet;
        ] );
      ( "negative decode",
        [
          Alcotest.test_case "truncated prefixes rejected" `Quick
            test_decode_rejects_prefixes;
          Alcotest.test_case "deep stack rejected" `Quick
            test_decode_rejects_deep_stack;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_decode_rejects_trailing;
          Alcotest.test_case "codec negatives" `Quick test_codec_negatives;
        ] );
      ( "stats frames",
        [
          test_stats_roundtrip;
          Alcotest.test_case "negatives" `Quick test_stats_negatives;
          Alcotest.test_case "operation events" `Quick
            test_stats_operation_events;
          Alcotest.test_case "encode caps" `Quick test_stats_encode_caps;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "hostile corpus decodes" `Quick
            test_hostile_corpus_decodes;
          Alcotest.test_case "seeded mutations" `Quick test_mutation_fuzz;
        ] );
      ( "io",
        [
          Alcotest.test_case "bounds" `Quick test_io_bounds;
          Alcotest.test_case "list cap" `Quick test_io_list_cap;
          Alcotest.test_case "put_str32 payload cap" `Quick
            test_put_str32_guard;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "16 B data packet decode and relay" `Quick
            test_data_path_allocation;
        ] );
      ( "transport",
        [ Alcotest.test_case "sim bytes" `Quick test_sim_transport ] );
    ]
