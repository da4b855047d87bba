(* Tests for lib/i3: packets, triggers, the matching table, security and
   full end-to-end deployments (rendezvous, caching, mobility, soft state,
   failures, security, hot spots). *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng0 = Rng.create 987654321L

(* Every deployment gets a private registry: test binaries run in
   parallel under `dune runtest` and must not share (or leak counters
   into) Obs.Metrics.default. *)
let deployment ?model ?server_config ~seed ~n_servers () =
  Transport.Deployment.create ~metrics:(Obs.Metrics.create ()) ?model ?server_config
    ~seed ~n_servers ()

(* --- Packet --- *)

let gen_packet =
  QCheck2.Gen.(
    let* seed = int in
    let r = Rng.create (Int64.of_int seed) in
    let* depth = int_range 1 4 in
    let stack =
      List.init depth (fun _ ->
          if Rng.bool r then I3.Packet.Sid (Id.random r)
          else I3.Packet.Saddr (Rng.int r 1_000_000))
    in
    let* payload_len = int_range 0 200 in
    let payload = Bytes.to_string (Rng.bytes r payload_len) in
    let* refresh = bool in
    let* match_required = bool in
    let sender = if Rng.bool r then Some (Rng.int r 1_000_000) else None in
    let* ttl = int_range 0 255 in
    return
      {
        (I3.Packet.make ?sender ~stack ~payload ())
        with
        I3.Packet.refresh;
        match_required;
        ttl;
      })

let packet_equal (a : I3.Packet.t) (b : I3.Packet.t) =
  I3.Packet.stack_equal a.stack b.stack
  && I3.Packet.payload_string a = I3.Packet.payload_string b
  && a.refresh = b.refresh
  && a.match_required = b.match_required
  && a.sender = b.sender && a.prev_trigger = b.prev_trigger && a.ttl = b.ttl

let test_packet_roundtrip =
  qtest "wire roundtrip" gen_packet (fun p ->
      match I3.Packet.decode (I3.Packet.encode p) with
      | Ok q -> packet_equal p q
      | Error _ -> false)

let test_packet_wire_length =
  qtest "wire_length = |encode|" gen_packet (fun p ->
      I3.Packet.wire_length p = String.length (I3.Packet.encode p))

let test_packet_prev_trigger_roundtrip () =
  let r = Rng.copy rng0 in
  let p =
    {
      (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random r) ] ~payload:"x" ())
      with
      I3.Packet.prev_trigger = Some (42, Id.random r);
    }
  in
  match I3.Packet.decode (I3.Packet.encode p) with
  | Ok q -> Alcotest.(check bool) "roundtrip with provenance" true (packet_equal p q)
  | Error e -> Alcotest.fail e

let test_packet_make_validation () =
  Alcotest.check_raises "empty stack"
    (Invalid_argument "Packet.make: empty identifier stack") (fun () ->
      ignore (I3.Packet.make ~stack:[] ~payload:"" ()));
  let r = Rng.copy rng0 in
  let deep = List.init 5 (fun _ -> I3.Packet.Sid (Id.random r)) in
  Alcotest.check_raises "deep stack"
    (Invalid_argument "Packet.make: identifier stack too deep") (fun () ->
      ignore (I3.Packet.make ~stack:deep ~payload:"" ()))

let test_packet_decode_errors () =
  let r = Rng.copy rng0 in
  let good =
    I3.Packet.encode
      (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.random r) ] ~payload:"abc" ())
  in
  let expect_err what s =
    match I3.Packet.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected decode error")
  in
  expect_err "empty" "";
  expect_err "truncated header" (String.sub good 0 20);
  expect_err "truncated payload" (String.sub good 0 (String.length good - 2));
  let bad_magic = Bytes.of_string good in
  Bytes.set bad_magic 0 'X';
  expect_err "bad magic" (Bytes.to_string bad_magic);
  let bad_version = Bytes.of_string good in
  Bytes.set bad_version 2 '\x07';
  expect_err "bad version" (Bytes.to_string bad_version);
  let bad_depth = Bytes.of_string good in
  Bytes.set bad_depth 4 '\x09';
  expect_err "bad stack depth" (Bytes.to_string bad_depth)

let test_packet_header_size () =
  (* paper: common header of 48 bytes *)
  let p = I3.Packet.make ~stack:[ I3.Packet.Saddr 1 ] ~payload:"" () in
  Alcotest.(check int) "48-byte header + 9-byte addr entry" (48 + 9)
    (String.length (I3.Packet.encode p))

(* --- Trigger --- *)

let test_trigger_predicates () =
  let r = Rng.copy rng0 in
  let id = Id.random r and target = Id.random r in
  let host_tr = I3.Trigger.to_host ~id ~owner:7 in
  Alcotest.(check bool) "points to host" true (I3.Trigger.points_to_host host_tr);
  Alcotest.(check bool) "no target id" true (I3.Trigger.target_id host_tr = None);
  let chain_tr = I3.Trigger.make ~id ~stack:[ I3.Packet.Sid target ] ~owner:7 in
  Alcotest.(check bool) "not host" false (I3.Trigger.points_to_host chain_tr);
  (match I3.Trigger.target_id chain_tr with
  | Some t -> Alcotest.(check bool) "target id" true (Id.equal t target)
  | None -> Alcotest.fail "expected target");
  Alcotest.(check bool) "same binding" true
    (I3.Trigger.same_binding host_tr (I3.Trigger.to_host ~id ~owner:7));
  Alcotest.(check bool) "different owner differs" false
    (I3.Trigger.same_binding host_tr (I3.Trigger.to_host ~id ~owner:8))

let test_trigger_validation () =
  Alcotest.check_raises "empty stack" (Invalid_argument "Trigger.make: empty stack")
    (fun () -> ignore (I3.Trigger.make ~id:Id.zero ~stack:[] ~owner:1))

(* --- Trigger_table --- *)

let table_with entries =
  let t = I3.Trigger_table.create () in
  List.iter
    (fun (id, owner) ->
      I3.Trigger_table.insert t ~now:0. ~expires:1000.
        (I3.Trigger.to_host ~id ~owner))
    entries;
  t

let test_table_exact_match () =
  let r = Rng.copy rng0 in
  let id = Id.random r in
  let t = table_with [ (id, 1) ] in
  Alcotest.(check int) "one match" 1
    (List.length (I3.Trigger_table.find_matches t ~now:1. id));
  Alcotest.(check int) "unrelated id no match" 0
    (List.length (I3.Trigger_table.find_matches t ~now:1. (Id.random r)))

let test_table_threshold () =
  (* 127 shared bits is not enough; 128 is. *)
  let base = Id.zero in
  let flip_bit i id =
    let raw = Bytes.of_string (Id.to_raw_string id) in
    let byte = i / 8 in
    Bytes.set raw byte
      (Char.chr (Char.code (Bytes.get raw byte) lxor (0x80 lsr (i mod 8))));
    Id.of_raw_string (Bytes.to_string raw)
  in
  let t = table_with [ (base, 1) ] in
  let diverge_at_127 = flip_bit 127 base in
  Alcotest.(check int) "127-bit match rejected" 0
    (List.length (I3.Trigger_table.find_matches t ~now:1. diverge_at_127));
  let diverge_at_128 = flip_bit 128 base in
  Alcotest.(check int) "128-bit match accepted" 1
    (List.length (I3.Trigger_table.find_matches t ~now:1. diverge_at_128))

let test_table_longest_prefix_wins () =
  let r = Rng.copy rng0 in
  let p = Id.random r in
  let close = Id.with_suffix p ~low_bits:8 "\x01" in
  let far = Id.with_suffix p ~low_bits:64 "\xff\xff\xff\xff\xff\xff\xff\xff" in
  let t = table_with [ (close, 1); (far, 2) ] in
  let packet_id = Id.with_suffix p ~low_bits:8 "\x03" in
  match I3.Trigger_table.find_matches t ~now:1. packet_id with
  | [ tr ] -> Alcotest.(check int) "closest suffix wins" 1 tr.I3.Trigger.owner
  | l -> Alcotest.fail (Printf.sprintf "expected 1 match, got %d" (List.length l))

let test_table_multicast_group () =
  let r = Rng.copy rng0 in
  let g = Id.random r in
  let t = table_with [ (g, 1); (g, 2); (g, 3) ] in
  Alcotest.(check int) "all members match" 3
    (List.length (I3.Trigger_table.find_matches t ~now:1. g))

let test_table_refresh_extends () =
  let r = Rng.copy rng0 in
  let id = Id.random r in
  let t = I3.Trigger_table.create () in
  let tr = I3.Trigger.to_host ~id ~owner:1 in
  I3.Trigger_table.insert t ~now:0. ~expires:100. tr;
  I3.Trigger_table.insert t ~now:50. ~expires:200. tr;
  Alcotest.(check int) "still one binding" 1 (I3.Trigger_table.size t);
  Alcotest.(check int) "alive at 150" 1
    (List.length (I3.Trigger_table.find_matches t ~now:150. id));
  Alcotest.(check int) "gone at 250" 0
    (List.length (I3.Trigger_table.find_matches t ~now:250. id))

let test_table_expire_sweep () =
  let r = Rng.copy rng0 in
  let t = I3.Trigger_table.create () in
  for k = 1 to 10 do
    I3.Trigger_table.insert t ~now:0.
      ~expires:(float_of_int (k * 10))
      (I3.Trigger.to_host ~id:(Id.random r) ~owner:k)
  done;
  Alcotest.(check int) "ten stored" 10 (I3.Trigger_table.size t);
  Alcotest.(check int) "five expire by t=55" 5 (I3.Trigger_table.expire t ~now:55.);
  Alcotest.(check int) "five left" 5 (I3.Trigger_table.size t)

let test_table_remove () =
  let r = Rng.copy rng0 in
  let id = Id.random r in
  let t = table_with [ (id, 1); (id, 2) ] in
  Alcotest.(check bool) "removed" true
    (I3.Trigger_table.remove t (I3.Trigger.to_host ~id ~owner:1));
  Alcotest.(check bool) "absent now" false
    (I3.Trigger_table.remove t (I3.Trigger.to_host ~id ~owner:1));
  Alcotest.(check int) "one left" 1 (I3.Trigger_table.size t)

let test_table_remove_matching () =
  let r = Rng.copy rng0 in
  let id = Id.random r and dead = Id.random r and other = Id.random r in
  let t = I3.Trigger_table.create () in
  let chain target owner =
    I3.Trigger.make ~id ~stack:[ I3.Packet.Sid target ] ~owner
  in
  I3.Trigger_table.insert t ~now:0. ~expires:100. (chain dead 1);
  I3.Trigger_table.insert t ~now:0. ~expires:100. (chain dead 2);
  I3.Trigger_table.insert t ~now:0. ~expires:100. (chain other 3);
  Alcotest.(check int) "two removed" 2
    (I3.Trigger_table.remove_matching t ~id ~target:dead);
  Alcotest.(check int) "one left" 1 (I3.Trigger_table.size t)

let test_table_bucket () =
  let r = Rng.copy rng0 in
  let p = Id.random r in
  let a = Id.random_with_prefix r p and b = Id.random_with_prefix r p in
  let t = table_with [ (a, 1); (b, 2); (Id.antipode p, 3) ] in
  Alcotest.(check int) "bucket holds prefix-sharers" 2
    (List.length (I3.Trigger_table.bucket_of t ~now:1. p));
  let entries = I3.Trigger_table.bucket_entries t ~now:1. p in
  List.iter
    (fun (_, remaining) ->
      Alcotest.(check (float 1e-9)) "remaining lifetime" 999. remaining)
    entries

let test_table_tie_break () =
  (* Two trigger ids whose prefix match with the packet id is equally long:
     the tie goes to the smaller identifier, in either insertion order. *)
  let r = Rng.copy rng0 in
  let p = Id.random r in
  let packet_id = Id.with_suffix p ~low_bits:8 "\x00" in
  let smaller = Id.with_suffix p ~low_bits:8 "\x40" in
  let bigger = Id.with_suffix p ~low_bits:8 "\x7f" in
  (* both first differ from the packet id at the same bit (0x40 and 0x7f
     share their leading 0 1 bits), so the prefix lengths really tie *)
  List.iter
    (fun entries ->
      let t = table_with entries in
      match I3.Trigger_table.find_matches t ~now:1. packet_id with
      | [ tr ] ->
          Alcotest.(check bool) "smaller id wins" true
            (Id.equal tr.I3.Trigger.id smaller)
      | l ->
          Alcotest.fail
            (Printf.sprintf "expected 1 match, got %d" (List.length l)))
    [ [ (smaller, 1); (bigger, 2) ]; [ (bigger, 2); (smaller, 1) ] ]

let test_table_bucket_entries_lifetime () =
  let r = Rng.copy rng0 in
  let p = Id.random r in
  let a = Id.random_with_prefix r p and b = Id.random_with_prefix r p in
  let t = I3.Trigger_table.create () in
  I3.Trigger_table.insert t ~now:0. ~expires:500.
    (I3.Trigger.to_host ~id:a ~owner:1);
  I3.Trigger_table.insert t ~now:0. ~expires:1500.
    (I3.Trigger.to_host ~id:b ~owner:2);
  let remaining_of owner entries =
    List.assoc owner
      (List.map (fun (tr, rem) -> (tr.I3.Trigger.owner, rem)) entries)
  in
  let at_400 = I3.Trigger_table.bucket_entries t ~now:400. p in
  Alcotest.(check int) "both alive at 400" 2 (List.length at_400);
  Alcotest.(check (float 1e-9)) "a: 500 - 400" 100. (remaining_of 1 at_400);
  Alcotest.(check (float 1e-9)) "b: 1500 - 400" 1100. (remaining_of 2 at_400);
  let at_600 = I3.Trigger_table.bucket_entries t ~now:600. p in
  Alcotest.(check int) "a expired by 600" 1 (List.length at_600);
  Alcotest.(check (float 1e-9)) "b: 1500 - 600" 900. (remaining_of 2 at_600)

let test_table_match_bruteforce =
  qtest ~count:100 "find_matches = brute force over stored ids"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      let prefix = Id.random r in
      let t = I3.Trigger_table.create () in
      let stored = ref [] in
      for owner = 1 to 15 do
        let id =
          if Rng.bool r then Id.random_with_prefix r prefix else Id.random r
        in
        stored := id :: !stored;
        I3.Trigger_table.insert t ~now:0. ~expires:100.
          (I3.Trigger.to_host ~id ~owner)
      done;
      let pid = Id.random_with_prefix r prefix in
      let best =
        List.fold_left
          (fun acc id ->
            let l = Id.common_prefix_len id pid in
            if l < Id.prefix_bits then acc
            else
              match acc with
              | None -> Some (l, id)
              | Some (bl, bid) ->
                  if l > bl || (l = bl && Id.compare id bid < 0) then Some (l, id)
                  else acc)
          None !stored
      in
      let got = I3.Trigger_table.find_matches t ~now:1. pid in
      match (best, got) with
      | None, [] -> true
      | Some (_, bid), (_ :: _ as l) ->
          List.for_all (fun x -> Id.equal x.I3.Trigger.id bid) l
      | _ -> false)

let test_packet_decode_fuzz =
  qtest ~count:500 "decode never raises on junk"
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun junk ->
      match I3.Packet.decode junk with Ok _ | Error _ -> true)

let test_packet_decode_bitflip_fuzz =
  qtest ~count:300 "decode never raises on corrupted packets"
    QCheck2.Gen.(pair gen_packet (pair (int_range 0 10_000) (int_range 0 255)))
    (fun (p, (pos, value)) ->
      let wire = Bytes.of_string (I3.Packet.encode p) in
      Bytes.set wire (pos mod Bytes.length wire) (Char.chr value);
      match I3.Packet.decode (Bytes.to_string wire) with
      | Ok _ | Error _ -> true)

(* Model-based check of the trigger table: replay a random script of
   inserts / removes / clock advances against a naive reference and
   compare every lookup. *)
let test_table_model =
  let open QCheck2.Gen in
  let script_gen =
    let* seed = int_range 1 1_000_000 in
    let* ops = list_size (int_range 1 60) (int_range 0 99) in
    return (seed, ops)
  in
  qtest ~count:120 "table agrees with a naive reference model" script_gen
    (fun (seed, ops) ->
      let rng = Rng.create (Int64.of_int seed) in
      (* a small pool with shared prefixes forces interesting matches *)
      let prefix = Id.random rng in
      let pool =
        Array.init 8 (fun i ->
            if i < 5 then Id.random_with_prefix rng prefix else Id.random rng)
      in
      let table = I3.Trigger_table.create () in
      let reference = ref [] (* (trigger, expires) *) in
      let clock = ref 0. in
      let ok = ref true in
      let reference_matches pid =
        let live = List.filter (fun (_, e) -> e > !clock) !reference in
        let best =
          List.fold_left
            (fun acc ((tr : I3.Trigger.t), _) ->
              let l = Id.common_prefix_len tr.I3.Trigger.id pid in
              if l < Id.prefix_bits then acc
              else
                match acc with
                | None -> Some (l, tr.I3.Trigger.id)
                | Some (bl, bid) ->
                    if l > bl || (l = bl && Id.compare tr.I3.Trigger.id bid < 0)
                    then Some (l, tr.I3.Trigger.id)
                    else acc)
            None live
        in
        match best with
        | None -> []
        | Some (_, bid) ->
            List.filter (fun ((tr : I3.Trigger.t), _) -> Id.equal tr.I3.Trigger.id bid) live
            |> List.map fst
      in
      List.iter
        (fun op ->
          let id = pool.(Rng.int rng (Array.length pool)) in
          let owner = Rng.int rng 3 in
          let tr = I3.Trigger.to_host ~id ~owner in
          if op < 45 then begin
            (* insert / refresh *)
            let expires = !clock +. float_of_int (10 + Rng.int rng 90) in
            I3.Trigger_table.insert table ~now:!clock ~expires tr;
            let same, rest =
              List.partition
                (fun (t, _) -> I3.Trigger.same_binding t tr)
                !reference
            in
            let kept =
              match same with
              | (_, old) :: _ -> Float.max old expires
              | [] -> expires
            in
            reference := (tr, kept) :: rest
          end
          else if op < 60 then begin
            (* remove *)
            let removed = I3.Trigger_table.remove table tr in
            let before = List.length !reference in
            reference :=
              List.filter
                (fun (t, _) -> not (I3.Trigger.same_binding t tr))
                !reference;
            let removed_ref = List.length !reference < before in
            (* removal of an expired-but-unswept binding may differ in
               return value; only flag live disagreements *)
            if removed <> removed_ref then begin
              let was_live =
                List.exists
                  (fun ((t : I3.Trigger.t), e) ->
                    I3.Trigger.same_binding t tr && e > !clock)
                  !reference
              in
              if was_live then ok := false
            end
          end
          else if op < 75 then begin
            (* advance the clock and sweep *)
            clock := !clock +. float_of_int (Rng.int rng 40);
            ignore (I3.Trigger_table.expire table ~now:!clock);
            reference := List.filter (fun (_, e) -> e > !clock) !reference
          end
          else begin
            (* compare a lookup *)
            let pid =
              if Rng.bool rng then id else Id.random_with_prefix rng prefix
            in
            let got =
              I3.Trigger_table.find_matches table ~now:!clock pid
              |> List.map (fun (t : I3.Trigger.t) ->
                     (Id.to_hex t.I3.Trigger.id, t.I3.Trigger.owner))
              |> List.sort compare
            in
            let want =
              reference_matches pid
              |> List.map (fun (t : I3.Trigger.t) ->
                     (Id.to_hex t.I3.Trigger.id, t.I3.Trigger.owner))
              |> List.sort compare
            in
            if got <> want then ok := false
          end)
        ops;
      !ok)

(* --- Security --- *)

let test_security_tokens () =
  let r = Rng.copy rng0 in
  let id = Id.random r in
  let tok = I3.Security.challenge_token ~secret:"s3cret" ~id ~target:5 in
  Alcotest.(check bool) "verifies" true
    (I3.Security.verify_token ~secret:"s3cret" ~id ~target:5 tok);
  Alcotest.(check bool) "wrong target" false
    (I3.Security.verify_token ~secret:"s3cret" ~id ~target:6 tok);
  Alcotest.(check bool) "wrong secret" false
    (I3.Security.verify_token ~secret:"other" ~id ~target:5 tok)

let test_security_vet () =
  let r = Rng.copy rng0 in
  let target = Id.random r in
  let ok_id = Id_constraints.left_constrained ~base:(Id.random r) ~target in
  let good = I3.Trigger.make ~id:ok_id ~stack:[ I3.Packet.Sid target ] ~owner:1 in
  let bad =
    I3.Trigger.make ~id:(Id.random r) ~stack:[ I3.Packet.Sid target ] ~owner:1
  in
  let host_tr = I3.Trigger.to_host ~id:(Id.random r) ~owner:9 in
  let vet ?(cc = true) ?(ch = true) ?token tr =
    I3.Security.vet ~check_constraints:cc ~challenge_hosts:ch ~secret:"k"
      ~token tr
  in
  Alcotest.(check bool) "constrained accepted" true (vet good = I3.Security.Accept);
  Alcotest.(check bool) "forged rejected" true
    (vet bad = I3.Security.Reject_constraint);
  Alcotest.(check bool) "constraints off accepts" true
    (vet ~cc:false bad = I3.Security.Accept);
  Alcotest.(check bool) "host trigger challenged" true
    (vet host_tr = I3.Security.Needs_challenge);
  let tok =
    I3.Security.challenge_token ~secret:"k" ~id:host_tr.I3.Trigger.id ~target:9
  in
  Alcotest.(check bool) "valid token accepted" true
    (vet ~token:tok host_tr = I3.Security.Accept);
  Alcotest.(check bool) "challenges off accepts" true
    (vet ~ch:false host_tr = I3.Security.Accept)

(* --- end-to-end deployments --- *)

let collect host =
  let log = ref [] in
  Transport.Host.on_receive host (fun ~stack:_ ~payload -> log := payload :: !log);
  fun () -> List.rev !log

(* One [i3.*] counter summed over every server of the deployment and
   over its other labels (every drop cause, say). *)
let sum_counter ?(labels = []) d name =
  let metrics = Net.metrics (Transport.Deployment.net d) in
  Array.fold_left
    (fun acc s ->
      acc
      + Obs.Metrics.sum_counters metrics
          ~labels:(("instance", I3.Server.instance_label s) :: labels)
          name)
    0 (Transport.Deployment.servers d)

let test_e2e_rendezvous () =
  let d = deployment ~seed:11 ~n_servers:16 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send id "hello";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "delivered" [ "hello" ] (got ())

let test_e2e_no_trigger_no_delivery () =
  let d = deployment ~seed:12 ~n_servers:16 () in
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send send (Transport.Host.new_private_id send) "void";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "dropped at responsible server" 1
    (sum_counter d "i3.drops")

let test_e2e_sender_cache () =
  let d = deployment ~seed:13 ~n_servers:32 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let (_ : unit -> string list) = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Alcotest.(check bool) "no cache yet" true
    (Transport.Host.cached_server_for send id = None);
  Transport.Host.send send id "a";
  Transport.Deployment.run_for d 500.;
  let responsible = Transport.Deployment.responsible_server d id in
  (match Transport.Host.cached_server_for send id with
  | Some a -> Alcotest.(check int) "caches responsible" (I3.Server.addr responsible) a
  | None -> Alcotest.fail "expected a cache entry");
  let before = sum_counter d "i3.data_forwarded" in
  Transport.Host.send send id "b";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "direct: zero overlay hops" before
    (sum_counter d "i3.data_forwarded")

let test_e2e_cache_expires () =
  let cfg = { Transport.Host.default_config with Transport.Host.cache_ttl_ms = 1_000. } in
  let d = deployment ~seed:14 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d ~config:cfg () in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send id "a";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check bool) "cached" true (Transport.Host.cached_server_for send id <> None);
  Transport.Deployment.run_for d 2_000.;
  Alcotest.(check bool) "expired" true (Transport.Host.cached_server_for send id = None)

let test_e2e_longest_prefix_anycast () =
  let d = deployment ~seed:15 ~n_servers:16 () in
  let r1 = Transport.Deployment.new_host d () in
  let r2 = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got1 = collect r1 and got2 = collect r2 in
  let group = Id.random (Rng.copy rng0) in
  let id1 = Id.with_suffix group ~low_bits:64 "\x00\x00\x00\x00\x00\x00\x00\x01" in
  let id2 = Id.with_suffix group ~low_bits:64 "\xf0\x00\x00\x00\x00\x00\x00\x02" in
  Transport.Host.insert_trigger r1 id1;
  Transport.Host.insert_trigger r2 id2;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send
    (Id.with_suffix group ~low_bits:64 "\x00\x00\x00\x00\x00\x00\x00\x09")
    "to-r1";
  Transport.Host.send send
    (Id.with_suffix group ~low_bits:64 "\xf0\x00\x00\x00\x00\x00\x00\x09")
    "to-r2";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "r1 got its packet" [ "to-r1" ] (got1 ());
  Alcotest.(check (list string)) "r2 got its packet" [ "to-r2" ] (got2 ())

let test_e2e_stack_pop_fallthrough () =
  let d = deployment ~seed:16 ~n_servers:16 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let live = Transport.Host.new_private_id recv in
  let dead = Transport.Host.new_private_id send in
  Transport.Host.insert_trigger recv live;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send_stack send [ I3.Packet.Sid dead; I3.Packet.Sid live ] "fallback";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "fallthrough" [ "fallback" ] (got ())

let test_e2e_match_required_drops () =
  let d = deployment ~seed:17 ~n_servers:16 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let live = Transport.Host.new_private_id recv in
  let dead = Transport.Host.new_private_id send in
  Transport.Host.insert_trigger recv live;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send_packet send
    {
      (I3.Packet.make
         ~stack:[ I3.Packet.Sid dead; I3.Packet.Sid live ]
         ~payload:"strict" ())
      with
      I3.Packet.match_required = true;
    };
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "dropped, no fallthrough" [] (got ())

let test_e2e_soft_state_expiry () =
  let cfg = { Transport.Host.default_config with Transport.Host.refresh_period_ms = 1e12 } in
  let d = deployment ~seed:18 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d ~config:cfg () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send id "while-alive";
  Transport.Deployment.run_for d 500.;
  Transport.Deployment.run_for d 40_000.;
  Transport.Host.send send id "after-expiry";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "only the first arrives" [ "while-alive" ] (got ())

let test_e2e_refresh_keeps_alive () =
  let d = deployment ~seed:19 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 200_000.;
  Transport.Host.send send id "later";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "alive after 200s" [ "later" ] (got ())

(* The default refresh lands well inside the trigger lifetime.  With a
   refresh period equal to the lifetime, any refresh whose path is
   slower than the last one's arrives after the entry expired, and the
   probes in that gap die at the owner.  Jitter alone, no loss, over
   100 s of back-to-back probes: several refresh boundaries. *)
let test_e2e_default_refresh_outlives_jitter () =
  let d = deployment ~seed:1 ~n_servers:32 () in
  Net.apply (Transport.Deployment.net d) (Faults.Jitter 20.);
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let received = ref 0 in
  Transport.Host.on_receive recv (fun ~stack:_ ~payload:_ -> incr received);
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  let probes = 20_000 in
  for i = 1 to probes do
    Transport.Host.send send id (string_of_int i);
    Transport.Deployment.run_for d 5.
  done;
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check int) "every probe delivered" probes !received

let test_e2e_remove_trigger () =
  let d = deployment ~seed:20 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.remove_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send id "gone";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "no delivery after remove" [] (got ());
  Alcotest.(check int) "no triggers stored" 0 (Transport.Deployment.total_triggers d)

let test_e2e_mobility () =
  let d = deployment ~seed:21 ~n_servers:16 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send id "before";
  Transport.Deployment.run_for d 500.;
  let old_addr = Transport.Host.addr recv in
  Transport.Host.move recv ~new_site:0;
  Alcotest.(check bool) "new address" true (Transport.Host.addr recv <> old_addr);
  Transport.Deployment.run_for d 500.;
  Transport.Host.send send id "after";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "sender oblivious" [ "before"; "after" ] (got ())

let test_e2e_backup_trigger_failover () =
  let d = deployment ~seed:22 ~n_servers:32 () in
  let recv = Transport.Deployment.new_host d () in
  let got = collect recv in
  let primary = Transport.Host.new_private_id recv in
  let backup = Transport.Host.insert_trigger_with_backup recv primary in
  Transport.Deployment.run_for d 1_000.;
  let victim = Chord.Oracle.responsible (Transport.Deployment.oracle d) primary in
  let backup_owner = Chord.Oracle.responsible (Transport.Deployment.oracle d) backup in
  Alcotest.(check bool) "stored on different servers" true (victim <> backup_owner);
  Transport.Deployment.fail_server d victim;
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send_with_backup send ~primary ~backup "survives";
  Transport.Deployment.run_for d 2_000.;
  Alcotest.(check (list string)) "delivered via backup" [ "survives" ] (got ())

let test_e2e_failover_refresh_recovers_primary () =
  let d = deployment ~seed:23 ~n_servers:32 () in
  let host_cfg = { Transport.Host.default_config with Transport.Host.ack_grace_ms = 40_000. } in
  let recv = Transport.Deployment.new_host d ~config:host_cfg () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  let victim = Chord.Oracle.responsible (Transport.Deployment.oracle d) id in
  Transport.Deployment.fail_server d victim;
  (* refreshes keep hitting the cached dead server until the ack-grace
     lapses; then the host falls back to a gateway and the trigger lands
     on the new responsible server *)
  Transport.Deployment.run_for d 110_000.;
  let now_responsible = Transport.Deployment.responsible_server d id in
  Alcotest.(check bool) "trigger re-homed" true
    (I3.Trigger_table.find_matches
       (I3.Server.triggers now_responsible)
       ~now:(Transport.Deployment.now d) id
    <> []);
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send send id "recovered";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "traffic resumes" [ "recovered" ] (got ())

(* Every server of a deployment sweeps on the deployment's one scheduler;
   a failed server must take its periodic sweep with it. *)
let test_e2e_failed_server_stops_sweeping () =
  let d = deployment ~seed:25 ~n_servers:8 () in
  let engine = Transport.Deployment.engine d in
  let sweep = I3.Server.sweep_period in
  Transport.Deployment.run_for d sweep;
  let before = Sim.Engine.pending engine in
  Transport.Deployment.fail_server d 0;
  Transport.Deployment.kill_server d 0;
  Transport.Deployment.run_for d (2. *. sweep);
  Alcotest.(check int) "two sweeps fewer" (before - 2) (Sim.Engine.pending engine)

let test_e2e_gateway_rotation () =
  let d = deployment ~seed:24 ~n_servers:8 () in
  let dead = Transport.Deployment.server d 0 and live = Transport.Deployment.server d 1 in
  I3.Server.kill dead;
  let host =
    Transport.Host.create ~net:(Transport.Deployment.net d)
      ~rng:(Rng.create 5L) ~site:0
      ~gateways:[ I3.Server.addr dead; I3.Server.addr live ]
      ()
  in
  let own = Transport.Host.new_private_id host in
  Alcotest.(check int) "starts on the dead gateway" (I3.Server.addr dead)
    (Transport.Host.gateway host);
  Transport.Host.insert_trigger host own;
  Transport.Deployment.run_for d 5_000.;
  let responsible () = Transport.Deployment.responsible_server d own in
  Alcotest.(check bool) "not stored yet" true
    (I3.Trigger_table.find_matches
       (I3.Server.triggers (responsible ()))
       ~now:(Transport.Deployment.now d) own
    = []);
  Transport.Deployment.run_for d 200_000.;
  Alcotest.(check bool) "stored after rotation" true
    (I3.Trigger_table.find_matches
       (I3.Server.triggers (responsible ()))
       ~now:(Transport.Deployment.now d) own
    <> [])

let test_e2e_ttl_stops_loops () =
  let d = deployment ~seed:25 ~n_servers:16 () in
  let h = Transport.Deployment.new_host d () in
  let r = Rng.create 3L in
  let a = Id.random r and b = Id.random r in
  (* constraints are off by default, so a loop is insertable *)
  Transport.Host.insert_stack_trigger h a [ I3.Packet.Sid b ];
  Transport.Host.insert_stack_trigger h b [ I3.Packet.Sid a ];
  Transport.Deployment.run_for d 500.;
  Transport.Host.send h a "spin";
  Transport.Deployment.run_for d 60_000.;
  Alcotest.(check int) "loop terminated by ttl" 1
    (sum_counter d "i3.drops")

let test_e2e_stack_depth_cap () =
  let d = deployment ~seed:26 ~n_servers:16 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let r = Rng.create 4L in
  let g = Id.random r in
  let deep =
    [ I3.Packet.Sid (Id.random r); I3.Packet.Sid (Id.random r);
      I3.Packet.Sid (Id.random r); I3.Packet.Saddr (Transport.Host.addr recv) ]
  in
  Transport.Host.insert_stack_trigger recv g deep;
  Transport.Deployment.run_for d 500.;
  (* 4 (trigger) + 1 (rest) = 5 > max depth: the rewrite is refused *)
  Transport.Host.send_stack send [ I3.Packet.Sid g; I3.Packet.Sid (Id.random r) ] "deep";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "over-deep rewrite dropped" [] (got ())

let test_e2e_constraints_enforced () =
  let cfg = { I3.Server.default_config with I3.Server.check_constraints = true } in
  let d = deployment ~seed:27 ~n_servers:16 ~server_config:cfg () in
  let h = Transport.Deployment.new_host d () in
  let r = Rng.create 6L in
  let target = Id.random r in
  Transport.Host.insert_stack_trigger h (Id.random r) [ I3.Packet.Sid target ];
  let ok = Id_constraints.left_constrained ~base:(Id.random r) ~target in
  Transport.Host.insert_stack_trigger h ok [ I3.Packet.Sid target ];
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check int) "only the constrained one stored" 1
    (Transport.Deployment.total_triggers d);
  Alcotest.(check bool) "rejection counted" true
    (sum_counter d ~labels:[ ("result", "rejected") ] "i3.inserts" >= 1)

let test_e2e_challenges () =
  let cfg = { I3.Server.default_config with I3.Server.challenge_hosts = true } in
  let d = deployment ~seed:28 ~n_servers:16 ~server_config:cfg () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 2_000.;
  Alcotest.(check bool) "challenge was issued" true
    (sum_counter d "i3.challenges_sent" >= 1);
  Transport.Host.send send id "challenged";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "legit host passes challenge" [ "challenged" ]
    (got ())

let test_e2e_reflection_defense () =
  let cfg = { I3.Server.default_config with I3.Server.challenge_hosts = true } in
  let d = deployment ~seed:29 ~n_servers:16 ~server_config:cfg () in
  let victim = Transport.Deployment.new_host d () in
  let attacker = Transport.Deployment.new_host d () in
  let r = Rng.create 8L in
  let stream = Id.random r in
  let forged =
    I3.Trigger.make ~id:stream
      ~stack:[ I3.Packet.Saddr (Transport.Host.addr victim) ]
      ~owner:(Transport.Host.addr attacker)
  in
  Net.send (Transport.Deployment.net d)
    ~src:(Transport.Host.addr attacker)
    ~dst:(I3.Server.addr (Transport.Deployment.server d 0))
    (I3.Codec.encode (I3.Message.Insert { trigger = forged; token = None }));
  Transport.Deployment.run_for d 5_000.;
  Alcotest.(check int) "no trigger installed" 0 (Transport.Deployment.total_triggers d)

let test_e2e_pushback () =
  let d = deployment ~seed:30 ~n_servers:16 () in
  let h = Transport.Deployment.new_host d () in
  let r = Rng.create 9L in
  let x = Id.random r and nowhere = Id.random r in
  Transport.Host.insert_stack_trigger h x [ I3.Packet.Sid nowhere ];
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "chain stored" 1 (Transport.Deployment.total_triggers d);
  Transport.Host.send h x "into-the-void";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check int) "dead-end trigger pushed back" 0
    (Transport.Deployment.total_triggers d);
  Alcotest.(check int) "one pushback" 1
    (sum_counter d "i3.pushbacks_sent")

let test_e2e_hot_spot_cache () =
  let cfg =
    {
      I3.Server.default_config with
      I3.Server.hot_spot_threshold = Some 20;
      hot_spot_window = 10_000.;
    }
  in
  let d = deployment ~seed:31 ~n_servers:16 ~server_config:cfg () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let (_ : unit -> string list) = collect recv in
  let hot = Id.random (Rng.create 10L) in
  Transport.Host.insert_trigger recv hot;
  Transport.Deployment.run_for d 500.;
  for _ = 1 to 30 do
    Transport.Host.send send hot "spike"
  done;
  Transport.Deployment.run_for d 2_000.;
  let oracle = Transport.Deployment.oracle d in
  let owner = Chord.Oracle.responsible oracle hot in
  let pred = Chord.Oracle.predecessor_of oracle owner in
  let pred_server = Transport.Deployment.server d pred in
  Alcotest.(check bool) "predecessor holds the pushed bucket" true
    (I3.Trigger_table.find_matches
       (I3.Server.cached_triggers pred_server)
       ~now:(Transport.Deployment.now d) hot
    <> []);
  (* The sender's host puts the packet on the wire to the predecessor
     itself, which answers from its pushed cache. *)
  let p = I3.Packet.make ~stack:[ I3.Packet.Sid hot ] ~payload:"via-cache" () in
  Net.send (Transport.Deployment.net d) ~src:(Transport.Host.addr send)
    ~dst:(I3.Server.addr pred_server)
    (I3.Codec.encode (I3.Message.Data p));
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "cache hit recorded" 1
    (Obs.Metrics.sum_counters
       (Net.metrics (Transport.Deployment.net d))
       ~labels:[ ("instance", I3.Server.instance_label pred_server) ]
       "i3.cache_hits")

let test_e2e_addr_head_is_plain_ip () =
  (* A stack whose head is already an address bypasses the overlay
     entirely: the host sends straight to the peer (Sec. II-E). *)
  let d = deployment ~seed:36 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  Transport.Host.send_stack send [ I3.Packet.Saddr (Transport.Host.addr recv) ] "direct-ip";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "delivered" [ "direct-ip" ] (got ());
  Alcotest.(check int) "no server touched" 0
    (sum_counter d "i3.data_received")

let test_e2e_trigger_rewrite_carries_rest_of_stack () =
  (* After a trigger fires, the receiver sees the rest of the packet's
     identifier stack (what service composition relies on). *)
  let d = deployment ~seed:37 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let seen_stack = ref None in
  Transport.Host.on_receive recv (fun ~stack ~payload:_ -> seen_stack := Some stack);
  let id = Transport.Host.new_private_id recv in
  let tail = Transport.Host.new_private_id send in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 500.;
  Transport.Host.send_stack send [ I3.Packet.Sid id; I3.Packet.Sid tail ] "x";
  Transport.Deployment.run_for d 500.;
  match !seen_stack with
  | Some [ I3.Packet.Sid t ] ->
      Alcotest.(check bool) "tail id preserved" true (Id.equal t tail)
  | Some other ->
      Alcotest.fail
        (Format.asprintf "unexpected stack %a" I3.Packet.pp_stack other)
  | None -> Alcotest.fail "nothing delivered"

let test_e2e_replication_no_gap () =
  let cfg = { I3.Server.default_config with I3.Server.replicate = true } in
  let d = deployment ~seed:32 ~n_servers:32 ~server_config:cfg () in
  let recv = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  (* the successor holds a mirror *)
  let owner = Chord.Oracle.responsible (Transport.Deployment.oracle d) id in
  let succ = Chord.Oracle.successor_of (Transport.Deployment.oracle d) owner in
  Alcotest.(check bool) "successor holds replica" true
    (I3.Trigger_table.find_matches
       (I3.Server.replica_triggers (Transport.Deployment.server d succ))
       ~now:(Transport.Deployment.now d) id
    <> []);
  (* fail the owner and send immediately — before any refresh *)
  Transport.Deployment.fail_server d owner;
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send send id "no-gap";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "served from the promoted replica"
    [ "no-gap" ] (got ())

let test_e2e_replication_gap_without () =
  (* Control experiment: identical scenario, replication off — the packet
     in the post-failure window is lost (paper Sec. IV-C's motivation). *)
  let d = deployment ~seed:32 ~n_servers:32 () in
  let recv = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  let owner = Chord.Oracle.responsible (Transport.Deployment.oracle d) id in
  Transport.Deployment.fail_server d owner;
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send send id "lost";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "lost without replication" [] (got ())

let test_e2e_replica_expires () =
  let cfg = { I3.Server.default_config with I3.Server.replicate = true } in
  let d = deployment ~seed:33 ~n_servers:16 ~server_config:cfg () in
  let host_cfg = { Transport.Host.default_config with Transport.Host.refresh_period_ms = 1e12 } in
  let recv = Transport.Deployment.new_host d ~config:host_cfg () in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  let owner = Chord.Oracle.responsible (Transport.Deployment.oracle d) id in
  let succ = Chord.Oracle.successor_of (Transport.Deployment.oracle d) owner in
  Transport.Deployment.run_for d 40_000.;
  (* no refresh: both the primary and the mirror lapse *)
  Alcotest.(check bool) "replica expired" true
    (I3.Trigger_table.find_matches
       (I3.Server.replica_triggers (Transport.Deployment.server d succ))
       ~now:(Transport.Deployment.now d) id
    = [])

let test_e2e_add_server_trigger_migrates () =
  let d = deployment ~seed:34 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  let old_owner = Transport.Deployment.responsible_server d id in
  (* Join a server exactly inside the arc so it takes over this id:
     choose its id just below the trigger's routing key. *)
  let new_id = Id.routing_key id in
  Alcotest.(check bool) "new id is free" true
    (Chord.Oracle.index_of (Transport.Deployment.oracle d) new_id = None);
  let newcomer = Transport.Deployment.add_server d ~id:new_id () in
  Alcotest.(check int) "ring grew" 9 (Transport.Deployment.ring_size d);
  Alcotest.(check bool) "arc moved" true
    (I3.Server.addr (Transport.Deployment.responsible_server d id)
    = I3.Server.addr newcomer);
  Alcotest.(check bool) "newcomer starts empty" true
    (I3.Trigger_table.size (I3.Server.triggers newcomer) = 0);
  (* within a refresh period the trigger lands on the newcomer... *)
  Transport.Deployment.run_for d 35_000.;
  Alcotest.(check bool) "trigger migrated" true
    (I3.Trigger_table.find_matches (I3.Server.triggers newcomer)
       ~now:(Transport.Deployment.now d) id
    <> []);
  (* ...and traffic flows, including from a sender that had cached the old
     owner: the stale server forwards and the newcomer re-educates it *)
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send send id "before-join-cache";
  Transport.Deployment.run_for d 1_000.;
  ignore old_owner;
  Transport.Host.send send id "after-join";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "both delivered"
    [ "before-join-cache"; "after-join" ]
    (got ())

let test_e2e_add_server_stale_cache_redirect () =
  let d = deployment ~seed:35 ~n_servers:8 () in
  let recv = Transport.Deployment.new_host d () in
  let (_ : unit -> string list) = collect recv in
  let send = Transport.Deployment.new_host d () in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  Transport.Host.send send id "warm-cache";
  Transport.Deployment.run_for d 1_000.;
  let old_addr = Option.get (Transport.Host.cached_server_for send id) in
  let newcomer = Transport.Deployment.add_server d ~id:(Id.routing_key id) () in
  Transport.Deployment.run_for d 35_000.;
  (* sending through the stale entry still works (stale server relays) and
     the Cache_info reply rebinds the sender to the newcomer *)
  Transport.Host.send_packet send
    {
      (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"relayed" ())
      with
      I3.Packet.refresh = true;
    };
  Transport.Deployment.run_for d 1_000.;
  let new_addr = Option.get (Transport.Host.cached_server_for send id) in
  Alcotest.(check bool) "cache rebound" true
    (new_addr = I3.Server.addr newcomer && new_addr <> old_addr)

let test_sample_nearby_id () =
  (* On a real topology, a sampled private trigger lives measurably closer
     than a random one (the Sec. IV-E heuristic; Fig. 8 at scale). *)
  let rng = Rng.create 77L in
  let model = Topology.Model.build rng Topology.Model.Transit_stub ~n:400 in
  let d = deployment ~seed:38 ~model ~n_servers:64 () in
  let host = Transport.Deployment.new_host d () in
  let dist id =
    let server = Transport.Deployment.responsible_server d id in
    Transport.Deployment.site_latency d (Transport.Host.site host)
      (Net.site (Transport.Deployment.net d) (I3.Server.addr server))
  in
  (* average over several draws to wash out luck *)
  let mean f =
    let total = ref 0. in
    for _ = 1 to 20 do
      total := !total +. f ()
    done;
    !total /. 20.
  in
  let sampled () = dist (Transport.Deployment.sample_nearby_id d host ~samples:16) in
  let random () = dist (Transport.Host.new_private_id host) in
  let s = mean sampled and r = mean random in
  Alcotest.(check bool)
    (Printf.sprintf "sampled closer on average (%.1f < %.1f ms)" s r)
    true (s < r)

(* Membership changes re-converge every view: after each random
   add_server/fail_server step on a static deployment, walking any live
   server's next hops toward a random id ends at its responsible server
   within ring_size hops, and exactly one live server owns the id. *)
let test_membership_reconverges_routing =
  let open QCheck2.Gen in
  let gen =
    let* seed = int_range 1 1_000_000 in
    let* n = int_range 8 24 in
    let* steps = list_size (int_range 1 8) (pair bool (int_range 0 1_000)) in
    return (seed, n, steps)
  in
  qtest ~count:100 "membership changes re-converge routing" gen
    (fun (seed, n_servers, steps) ->
      let d = deployment ~seed ~n_servers () in
      let rng = Rng.of_int seed in
      let routes_agree () =
        let size = Transport.Deployment.ring_size d in
        let live = List.init size (Transport.Deployment.server d) in
        let by_addr a = List.find_opt (fun s -> I3.Server.addr s = a) live in
        List.for_all
          (fun id ->
            let owner = Transport.Deployment.responsible_server d id in
            let rec walk s hops =
              match (I3.Server.view s).I3.Server.next_hop id with
              | None -> s == owner
              | Some a -> (
                  (* a hop to a dead or unknown server is a routing fault *)
                  match by_addr a with
                  | Some next -> hops < size && walk next (hops + 1)
                  | None -> false)
            in
            List.for_all (fun s -> walk s 0) live
            && List.length
                 (List.filter (fun s -> (I3.Server.view s).I3.Server.owns id) live)
               = 1)
          (List.init 8 (fun _ -> Id.random rng))
      in
      routes_agree ()
      && List.for_all
           (fun (join, pick) ->
             let size = Transport.Deployment.ring_size d in
             if join || size = 1 then
               ignore (Transport.Deployment.add_server d ())
             else Transport.Deployment.fail_server d (pick mod size);
             routes_agree ())
           steps)

let () =
  Alcotest.run "i3"
    [
      ( "packet",
        [
          test_packet_roundtrip;
          test_packet_wire_length;
          Alcotest.test_case "provenance roundtrip" `Quick test_packet_prev_trigger_roundtrip;
          Alcotest.test_case "make validation" `Quick test_packet_make_validation;
          Alcotest.test_case "decode errors" `Quick test_packet_decode_errors;
          Alcotest.test_case "48-byte header" `Quick test_packet_header_size;
          test_packet_decode_fuzz;
          test_packet_decode_bitflip_fuzz;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "predicates" `Quick test_trigger_predicates;
          Alcotest.test_case "validation" `Quick test_trigger_validation;
        ] );
      ( "trigger table",
        [
          Alcotest.test_case "exact match" `Quick test_table_exact_match;
          Alcotest.test_case "k-bit threshold" `Quick test_table_threshold;
          Alcotest.test_case "longest prefix wins" `Quick test_table_longest_prefix_wins;
          Alcotest.test_case "multicast group" `Quick test_table_multicast_group;
          Alcotest.test_case "refresh extends" `Quick test_table_refresh_extends;
          Alcotest.test_case "expiry sweep" `Quick test_table_expire_sweep;
          Alcotest.test_case "remove" `Quick test_table_remove;
          Alcotest.test_case "remove_matching (pushback)" `Quick test_table_remove_matching;
          Alcotest.test_case "bucket" `Quick test_table_bucket;
          Alcotest.test_case "equal-prefix tie-break" `Quick test_table_tie_break;
          Alcotest.test_case "bucket_entries lifetimes" `Quick
            test_table_bucket_entries_lifetime;
          test_table_match_bruteforce;
          test_table_model;
        ] );
      ( "security",
        [
          Alcotest.test_case "challenge tokens" `Quick test_security_tokens;
          Alcotest.test_case "vet verdicts" `Quick test_security_vet;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "rendezvous" `Quick test_e2e_rendezvous;
          Alcotest.test_case "no trigger, no delivery" `Quick test_e2e_no_trigger_no_delivery;
          Alcotest.test_case "sender cache" `Quick test_e2e_sender_cache;
          Alcotest.test_case "cache expiry" `Quick test_e2e_cache_expires;
          Alcotest.test_case "longest-prefix anycast" `Quick test_e2e_longest_prefix_anycast;
          Alcotest.test_case "stack pop fallthrough" `Quick test_e2e_stack_pop_fallthrough;
          Alcotest.test_case "match-required drops" `Quick test_e2e_match_required_drops;
          Alcotest.test_case "soft-state expiry" `Quick test_e2e_soft_state_expiry;
          Alcotest.test_case "refresh keeps alive" `Quick test_e2e_refresh_keeps_alive;
          Alcotest.test_case "default refresh outlives jitter" `Quick
            test_e2e_default_refresh_outlives_jitter;
          Alcotest.test_case "remove trigger" `Quick test_e2e_remove_trigger;
          Alcotest.test_case "mobility" `Quick test_e2e_mobility;
          Alcotest.test_case "backup trigger failover" `Quick test_e2e_backup_trigger_failover;
          Alcotest.test_case "failover + refresh recovery" `Quick test_e2e_failover_refresh_recovers_primary;
          Alcotest.test_case "failed server stops sweeping" `Quick
            test_e2e_failed_server_stops_sweeping;
          Alcotest.test_case "gateway rotation" `Quick test_e2e_gateway_rotation;
          Alcotest.test_case "ttl stops loops" `Quick test_e2e_ttl_stops_loops;
          Alcotest.test_case "stack depth cap" `Quick test_e2e_stack_depth_cap;
          Alcotest.test_case "constraints enforced" `Quick test_e2e_constraints_enforced;
          Alcotest.test_case "challenges" `Quick test_e2e_challenges;
          Alcotest.test_case "reflection defense" `Quick test_e2e_reflection_defense;
          Alcotest.test_case "pushback removes dead chains" `Quick test_e2e_pushback;
          Alcotest.test_case "hot-spot cache" `Quick test_e2e_hot_spot_cache;
          Alcotest.test_case "addr head = plain IP" `Quick test_e2e_addr_head_is_plain_ip;
          Alcotest.test_case "rewrite keeps rest of stack" `Quick
            test_e2e_trigger_rewrite_carries_rest_of_stack;
        ] );
      ( "replication and membership",
        [
          Alcotest.test_case "replication closes the failure gap" `Quick
            test_e2e_replication_no_gap;
          Alcotest.test_case "gap exists without replication" `Quick
            test_e2e_replication_gap_without;
          Alcotest.test_case "replicas expire" `Quick test_e2e_replica_expires;
          Alcotest.test_case "add_server migrates triggers" `Quick
            test_e2e_add_server_trigger_migrates;
          test_membership_reconverges_routing;
          Alcotest.test_case "add_server redirects stale caches" `Quick
            test_e2e_add_server_stale_cache_redirect;
          Alcotest.test_case "nearby-id sampling" `Quick test_sample_nearby_id;
        ] );
    ]
