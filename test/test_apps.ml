(* Tests for lib/i3apps: the communication abstractions of paper Secs. II-III
   built on the core API — multicast, scalable multicast, anycast, server
   selection, service composition, heterogeneous multicast, sessions,
   mobility and the legacy proxy. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Private registry per deployment: parallel test binaries must not
   share Obs.Metrics.default. *)
let deployment ?(seed = 101) ?(n_servers = 16) () =
  Transport.Deployment.create ~metrics:(Obs.Metrics.create ()) ~seed ~n_servers ()

let collect host =
  let log = ref [] in
  Transport.Host.on_receive host (fun ~stack:_ ~payload -> log := payload :: !log);
  fun () -> List.rev !log

(* --- Multicast --- *)

let test_multicast_fanout () =
  let d = deployment () in
  let members = List.init 5 (fun _ -> Transport.Deployment.new_host d ()) in
  let logs = List.map collect members in
  let sender = Transport.Deployment.new_host d () in
  let g = I3apps.Multicast.create_group (Transport.Deployment.rng d) in
  List.iter (fun m -> I3apps.Multicast.join m g) members;
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "member count" 5 (I3apps.Multicast.member_count d g);
  I3apps.Multicast.send sender g "blast";
  Transport.Deployment.run_for d 500.;
  List.iter
    (fun log -> Alcotest.(check (list string)) "each member got it" [ "blast" ] (log ()))
    logs

let test_multicast_unicast_switch () =
  (* The paper's on-the-fly unicast -> multicast switch: the sender keeps
     using the same identifier while a second party joins. *)
  let d = deployment ~seed:102 () in
  let a = Transport.Deployment.new_host d () in
  let b = Transport.Deployment.new_host d () in
  let got_a = collect a and got_b = collect b in
  let sender = Transport.Deployment.new_host d () in
  let g = I3apps.Multicast.named_group "phone-call-42" in
  I3apps.Multicast.join a g;
  Transport.Deployment.run_for d 500.;
  I3apps.Multicast.send sender g "one-party";
  Transport.Deployment.run_for d 500.;
  I3apps.Multicast.join b g;
  Transport.Deployment.run_for d 500.;
  I3apps.Multicast.send sender g "two-party";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "a heard both" [ "one-party"; "two-party" ] (got_a ());
  Alcotest.(check (list string)) "b heard the second" [ "two-party" ] (got_b ())

let test_multicast_leave () =
  let d = deployment ~seed:103 () in
  let m = Transport.Deployment.new_host d () in
  let got = collect m in
  let sender = Transport.Deployment.new_host d () in
  let g = I3apps.Multicast.create_group (Transport.Deployment.rng d) in
  I3apps.Multicast.join m g;
  Transport.Deployment.run_for d 500.;
  I3apps.Multicast.leave m g;
  Transport.Deployment.run_for d 500.;
  I3apps.Multicast.send sender g "late";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "nothing after leave" [] (got ())

(* --- Scalable multicast --- *)

let test_smc_plan_invariants =
  qtest "plan: bounded fanout, all members attached"
    QCheck2.Gen.(pair (int_range 0 200) (int_range 2 8))
    (fun (members, degree) ->
      let rng = Rng.create 55L in
      let root = Id.random rng in
      let p = I3apps.Scalable_multicast.plan rng ~root ~members ~degree in
      let fanouts = I3apps.Scalable_multicast.fanout_histogram p in
      List.for_all (fun (_, n) -> n <= degree) fanouts
      && Array.length p.I3apps.Scalable_multicast.attachment
         = max members (min members 1))

let test_smc_plan_rejects_degree_one () =
  Alcotest.check_raises "degree < 2"
    (Invalid_argument "Scalable_multicast.plan: degree < 2") (fun () ->
      ignore
        (I3apps.Scalable_multicast.plan (Rng.create 1L) ~root:Id.zero
           ~members:5 ~degree:1))

let test_smc_end_to_end () =
  let d = deployment ~seed:104 ~n_servers:32 () in
  let members = Array.init 20 (fun _ -> Transport.Deployment.new_host d ()) in
  let logs = Array.map collect members in
  let coordinator = Transport.Deployment.new_host d () in
  let sender = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let root = Id.random rng in
  let p = I3apps.Scalable_multicast.plan rng ~root ~members:20 ~degree:3 in
  I3apps.Scalable_multicast.deploy ~coordinator ~members p;
  Transport.Deployment.run_for d 1_000.;
  (* the bound holds on the deployed trigger tables too *)
  Array.iter
    (fun s ->
      let per_id = Hashtbl.create 16 in
      I3.Trigger_table.iter (I3.Server.triggers s) (fun tr ~expires:_ ->
          let k = Id.to_raw_string tr.I3.Trigger.id in
          Hashtbl.replace per_id k
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_id k)));
      Hashtbl.iter
        (fun _ n -> Alcotest.(check bool) "fanout <= 3" true (n <= 3))
        per_id)
    (Transport.Deployment.servers d);
  I3apps.Scalable_multicast.send sender p "tree";
  Transport.Deployment.run_for d 2_000.;
  Array.iter
    (fun log -> Alcotest.(check (list string)) "every member reached" [ "tree" ] (log ()))
    logs

let test_smc_small_group_direct () =
  let rng = Rng.create 66L in
  let root = Id.random rng in
  let p = I3apps.Scalable_multicast.plan rng ~root ~members:3 ~degree:4 in
  Alcotest.(check int) "no internal edges" 0
    (List.length p.I3apps.Scalable_multicast.internal_edges);
  Array.iter
    (fun att -> Alcotest.(check bool) "attached at root" true (Id.equal att root))
    p.I3apps.Scalable_multicast.attachment

(* --- Anycast --- *)

let test_anycast_exactly_one () =
  let d = deployment ~seed:105 () in
  let members = List.init 4 (fun _ -> Transport.Deployment.new_host d ()) in
  let logs = List.map collect members in
  let sender = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let g = I3apps.Anycast.create_group rng in
  List.iter (fun m -> ignore (I3apps.Anycast.join m rng ~group:g ())) members;
  Transport.Deployment.run_for d 500.;
  for _ = 1 to 10 do
    I3apps.Anycast.send sender rng ~group:g "pick-one"
  done;
  Transport.Deployment.run_for d 500.;
  let total = List.fold_left (fun acc log -> acc + List.length (log ())) 0 logs in
  Alcotest.(check int) "each packet delivered exactly once" 10 total

let test_anycast_ids_share_prefix =
  qtest "member ids share the group's k-bit prefix" QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let g = I3apps.Anycast.create_group rng in
      let id = I3apps.Anycast.member_id rng ~group:g ~preference:"xyz" () in
      Id.common_prefix_len g id >= Id.prefix_bits)

let test_anycast_preference_selects () =
  let d = deployment ~seed:106 () in
  let near = Transport.Deployment.new_host d () in
  let far = Transport.Deployment.new_host d () in
  let got_near = collect near and got_far = collect far in
  let sender = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let g = I3apps.Anycast.create_group rng in
  ignore (I3apps.Anycast.join near rng ~group:g ~preference:"AAAA" ());
  ignore (I3apps.Anycast.join far rng ~group:g ~preference:"ZZZZ" ());
  Transport.Deployment.run_for d 500.;
  I3apps.Anycast.send sender rng ~group:g ~preference:"AAAA" "to-near";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "preferred member wins" [ "to-near" ] (got_near ());
  Alcotest.(check (list string)) "other silent" [] (got_far ())

(* --- Server selection --- *)

let test_selection_weighted_load () =
  let d = deployment ~seed:107 ~n_servers:8 () in
  let big = Transport.Deployment.new_host d () in
  let small = Transport.Deployment.new_host d () in
  let got_big = collect big and got_small = collect small in
  let client = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let g = I3apps.Anycast.create_group rng in
  ignore (I3apps.Server_selection.join_weighted big rng ~group:g ~capacity:9);
  ignore (I3apps.Server_selection.join_weighted small rng ~group:g ~capacity:1);
  Transport.Deployment.run_for d 500.;
  for _ = 1 to 200 do
    I3apps.Server_selection.request_any client rng ~group:g "req"
  done;
  Transport.Deployment.run_for d 2_000.;
  let nb = List.length (got_big ()) and ns = List.length (got_small ()) in
  Alcotest.(check int) "every request served once" 200 (nb + ns);
  Alcotest.(check bool)
    (Printf.sprintf "load follows capacity (big=%d small=%d)" nb ns)
    true
    (nb > 3 * ns)

let test_selection_set_capacity () =
  let d = deployment ~seed:108 ~n_servers:8 () in
  let m = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let g = I3apps.Anycast.create_group rng in
  let member = I3apps.Server_selection.join_weighted m rng ~group:g ~capacity:4 in
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "four triggers" 4 (Transport.Deployment.total_triggers d);
  I3apps.Server_selection.set_capacity member rng ~group:g 1;
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "shrunk to one" 1 (Transport.Deployment.total_triggers d);
  I3apps.Server_selection.set_capacity member rng ~group:g 6;
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "grown to six" 6 (Transport.Deployment.total_triggers d);
  I3apps.Server_selection.leave member;
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "gone" 0 (Transport.Deployment.total_triggers d)

let test_selection_locality () =
  let d = deployment ~seed:109 ~n_servers:8 () in
  let berkeley = Transport.Deployment.new_host d () in
  let london = Transport.Deployment.new_host d () in
  let got_b = collect berkeley and got_l = collect london in
  let client = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let g = I3apps.Anycast.create_group rng in
  ignore (I3apps.Server_selection.join_near berkeley rng ~group:g ~zip:"94720");
  ignore (I3apps.Server_selection.join_near london rng ~group:g ~zip:"EC1A1");
  Transport.Deployment.run_for d 500.;
  I3apps.Server_selection.request_near client rng ~group:g ~zip:"94720" "west";
  I3apps.Server_selection.request_near client rng ~group:g ~zip:"EC1A1" "east";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "berkeley serves berkeley" [ "west" ] (got_b ());
  Alcotest.(check (list string)) "london serves london" [ "east" ] (got_l ())

(* --- Service composition --- *)

let test_composition_single_service () =
  let d = deployment ~seed:110 () in
  let transcoder = Transport.Deployment.new_host d () in
  let recv = Transport.Deployment.new_host d () in
  let sender = Transport.Deployment.new_host d () in
  let got = collect recv in
  let rng = Transport.Deployment.rng d in
  let svc_id = Id.random rng in
  let svc =
    I3apps.Service_composition.attach transcoder ~service_id:svc_id
      ~transform:String.uppercase_ascii
  in
  let flow = Id.random rng in
  Transport.Host.insert_trigger recv flow;
  Transport.Deployment.run_for d 500.;
  I3apps.Service_composition.send_via sender ~services:[ svc_id ] ~flow "html";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "transcoded" [ "HTML" ] (got ());
  Alcotest.(check int) "service processed one" 1
    (I3apps.Service_composition.processed_count svc)

let test_composition_two_services_in_order () =
  let d = deployment ~seed:111 () in
  let s1 = Transport.Deployment.new_host d () in
  let s2 = Transport.Deployment.new_host d () in
  let recv = Transport.Deployment.new_host d () in
  let sender = Transport.Deployment.new_host d () in
  let got = collect recv in
  let rng = Transport.Deployment.rng d in
  let id1 = Id.random rng and id2 = Id.random rng and flow = Id.random rng in
  let _ =
    I3apps.Service_composition.attach s1 ~service_id:id1 ~transform:(fun s ->
        s ^ "+first")
  in
  let _ =
    I3apps.Service_composition.attach s2 ~service_id:id2 ~transform:(fun s ->
        s ^ "+second")
  in
  Transport.Host.insert_trigger recv flow;
  Transport.Deployment.run_for d 500.;
  I3apps.Service_composition.send_via sender ~services:[ id1; id2 ] ~flow "x";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "order preserved" [ "x+first+second" ] (got ())

let test_composition_stack_limit () =
  let d = deployment ~seed:112 () in
  let sender = Transport.Deployment.new_host d () in
  let r = Rng.create 1L in
  let ids = List.init 4 (fun _ -> Id.random r) in
  Alcotest.check_raises "too many services"
    (Invalid_argument "Service_composition.send_via: too many services")
    (fun () ->
      I3apps.Service_composition.send_via sender ~services:ids
        ~flow:(Id.random r) "x")

(* --- Heterogeneous multicast --- *)

let test_heterogeneous_multicast () =
  let d = deployment ~seed:113 ~n_servers:32 () in
  let mpeg_recv = Transport.Deployment.new_host d () in
  let h263_recv = Transport.Deployment.new_host d () in
  let transcoder = Transport.Deployment.new_host d () in
  let sender = Transport.Deployment.new_host d () in
  let got_mpeg = collect mpeg_recv and got_h263 = collect h263_recv in
  let rng = Transport.Deployment.rng d in
  let group = Id.random rng in
  let svc = Id.random rng in
  let _ =
    I3apps.Service_composition.attach transcoder ~service_id:svc
      ~transform:(fun s -> "h263(" ^ s ^ ")")
  in
  I3apps.Heterogeneous_multicast.subscribe_native mpeg_recv ~group;
  let _p =
    I3apps.Heterogeneous_multicast.subscribe_via h263_recv rng ~group
      ~service:svc
  in
  Transport.Deployment.run_for d 500.;
  I3apps.Heterogeneous_multicast.publish sender ~group "mpeg-frame";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "native gets raw" [ "mpeg-frame" ] (got_mpeg ());
  Alcotest.(check (list string)) "other gets transcoded"
    [ "h263(mpeg-frame)" ]
    (got_h263 ())

(* --- Sessions --- *)

let test_session_handshake_and_duplex () =
  let d = deployment ~seed:114 () in
  let server_host = Transport.Deployment.new_host d () in
  let client_host = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let smgr = I3apps.Session.manager server_host (Rng.split rng) in
  let cmgr = I3apps.Session.manager client_host (Rng.split rng) in
  let public = Id.name_hash "www.example.com" in
  let server_log = ref [] in
  I3apps.Session.listen smgr ~public ~on_accept:(fun s ->
      I3apps.Session.on_data s (fun m ->
          server_log := m :: !server_log;
          I3apps.Session.send s ("echo:" ^ m)));
  Transport.Deployment.run_for d 500.;
  let client_log = ref [] in
  let session = ref None in
  I3apps.Session.connect cmgr ~public ~on_ready:(fun s ->
      session := Some s;
      I3apps.Session.on_data s (fun m -> client_log := m :: !client_log);
      I3apps.Session.send s "hi");
  Transport.Deployment.run_for d 2_000.;
  (match !session with
  | Some s -> Alcotest.(check bool) "established" true (I3apps.Session.is_established s)
  | None -> Alcotest.fail "no session");
  Alcotest.(check (list string)) "server heard" [ "hi" ] !server_log;
  Alcotest.(check (list string)) "client echoed" [ "echo:hi" ] !client_log

let test_session_survives_mobility () =
  let d = deployment ~seed:115 () in
  let server_host = Transport.Deployment.new_host d () in
  let client_host = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let smgr = I3apps.Session.manager server_host (Rng.split rng) in
  let cmgr = I3apps.Session.manager client_host (Rng.split rng) in
  let public = Id.name_hash "mobile.example.com" in
  let server_log = ref [] in
  I3apps.Session.listen smgr ~public ~on_accept:(fun s ->
      I3apps.Session.on_data s (fun m -> server_log := m :: !server_log));
  let session = ref None in
  I3apps.Session.connect cmgr ~public ~on_ready:(fun s -> session := Some s);
  Transport.Deployment.run_for d 2_000.;
  let s = Option.get !session in
  I3apps.Session.send s "before-move";
  Transport.Deployment.run_for d 500.;
  (* both endpoints move simultaneously — the paper's hardest case *)
  Transport.Host.move server_host ~new_site:0;
  Transport.Host.move client_host ~new_site:0;
  Transport.Deployment.run_for d 500.;
  I3apps.Session.send s "after-move";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "flow unbroken"
    [ "before-move"; "after-move" ]
    (List.rev !server_log)

let test_session_close_tears_down () =
  let d = deployment ~seed:116 () in
  let a = Transport.Deployment.new_host d () in
  let b = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let amgr = I3apps.Session.manager a (Rng.split rng) in
  let bmgr = I3apps.Session.manager b (Rng.split rng) in
  let public = Id.name_hash "close.example.com" in
  let accepted = ref None in
  I3apps.Session.listen bmgr ~public ~on_accept:(fun s -> accepted := Some s);
  let mine = ref None in
  I3apps.Session.connect amgr ~public ~on_ready:(fun s -> mine := Some s);
  Transport.Deployment.run_for d 2_000.;
  let s = Option.get !mine in
  Alcotest.(check bool) "established before close" true
    (I3apps.Session.is_established s);
  I3apps.Session.close s;
  I3apps.Session.close s (* idempotent *);
  Alcotest.(check bool) "closed" false (I3apps.Session.is_established s);
  (* the private trigger is gone: data to it dies at the server *)
  Transport.Deployment.run_for d 500.;
  let heard = ref 0 in
  (match !accepted with
  | Some peer ->
      I3apps.Session.on_data peer (fun _ -> incr heard);
      I3apps.Session.send peer "into-the-void"
  | None -> Alcotest.fail "no accepted session");
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "nothing heard after close" 0 !heard

(* --- Mobility flows --- *)

let test_mobility_flow_roaming () =
  let d = deployment ~seed:117 () in
  let listener = Transport.Deployment.new_host d () in
  let sender = Transport.Deployment.new_host d () in
  let heard = ref 0 in
  let flow =
    I3apps.Mobility.establish ~rng:(Transport.Deployment.rng d) ~listener ~sender
      ~on_data:(fun _ -> incr heard)
  in
  Transport.Deployment.run_for d 500.;
  (* roam through three sites while a packet is sent every second *)
  I3apps.Mobility.roam ~engine:(Transport.Deployment.engine d) flow ~sites:[ 0; 0; 0 ]
    ~dwell_ms:3_000.;
  for _ = 1 to 12 do
    I3apps.Mobility.send flow "tick";
    Transport.Deployment.run_for d 1_000.
  done;
  Alcotest.(check int) "all ticks heard across moves" 12 (I3apps.Mobility.received flow);
  Alcotest.(check int) "callback fired" 12 !heard

let test_mobility_simultaneous_moves () =
  let d = deployment ~seed:118 () in
  let listener = Transport.Deployment.new_host d () in
  let sender = Transport.Deployment.new_host d () in
  let flow =
    I3apps.Mobility.establish ~rng:(Transport.Deployment.rng d) ~listener ~sender
      ~on_data:(fun _ -> ())
  in
  Transport.Deployment.run_for d 500.;
  I3apps.Mobility.send flow "a";
  Transport.Deployment.run_for d 500.;
  I3apps.Mobility.move_receiver flow ~new_site:0;
  I3apps.Mobility.move_sender flow ~new_site:0;
  Transport.Deployment.run_for d 500.;
  I3apps.Mobility.send flow "b";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check int) "both delivered" 2 (I3apps.Mobility.received flow)

(* --- Proxy --- *)

let test_proxy_request_reply () =
  let d = deployment ~seed:119 () in
  let server_host = Transport.Deployment.new_host d () in
  let client_host = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let sproxy = I3apps.Proxy.create server_host (Rng.split rng) in
  let cproxy = I3apps.Proxy.create client_host (Rng.split rng) in
  I3apps.Proxy.expose sproxy ~name:"time.example.com" ~handler:(fun req ->
      Some ("pong:" ^ req));
  Transport.Deployment.run_for d 500.;
  let reply = ref None in
  I3apps.Proxy.request cproxy ~name:"time.example.com" ~payload:"ping"
    ~on_reply:(fun r -> reply := Some r);
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (option string)) "reply" (Some "pong:ping") !reply

let test_proxy_concurrent_requests_correlate () =
  let d = deployment ~seed:120 () in
  let server_host = Transport.Deployment.new_host d () in
  let client_host = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let sproxy = I3apps.Proxy.create server_host (Rng.split rng) in
  let cproxy = I3apps.Proxy.create client_host (Rng.split rng) in
  I3apps.Proxy.expose sproxy ~name:"svc" ~handler:(fun req -> Some ("r" ^ req));
  Transport.Deployment.run_for d 500.;
  let replies = Hashtbl.create 4 in
  List.iter
    (fun p ->
      I3apps.Proxy.request cproxy ~name:"svc" ~payload:p ~on_reply:(fun r ->
          Hashtbl.replace replies p r))
    [ "1"; "2"; "3" ];
  Transport.Deployment.run_for d 1_000.;
  List.iter
    (fun p ->
      Alcotest.(check (option string)) ("reply " ^ p) (Some ("r" ^ p))
        (Hashtbl.find_opt replies p))
    [ "1"; "2"; "3" ]

let test_proxy_oneway () =
  let d = deployment ~seed:121 () in
  let server_host = Transport.Deployment.new_host d () in
  let client_host = Transport.Deployment.new_host d () in
  let rng = Transport.Deployment.rng d in
  let sproxy = I3apps.Proxy.create server_host (Rng.split rng) in
  let cproxy = I3apps.Proxy.create client_host (Rng.split rng) in
  let seen = ref [] in
  I3apps.Proxy.expose sproxy ~name:"log" ~handler:(fun req ->
      seen := req :: !seen;
      None);
  Transport.Deployment.run_for d 500.;
  I3apps.Proxy.send_oneway cproxy ~name:"log" "event-1";
  Transport.Deployment.run_for d 500.;
  Alcotest.(check (list string)) "datagram arrived" [ "event-1" ] !seen

let test_proxy_public_id_stable () =
  Alcotest.(check bool) "hash-derived" true
    (Id.equal
       (I3apps.Proxy.public_id ~name:"cnn.com")
       (Id.name_hash "cnn.com"))

(* --- Anonymity --- *)

let test_anonymity_chain_delivers () =
  let d = deployment ~seed:130 ~n_servers:32 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let got = collect recv in
  let shield = I3apps.Anonymity.build recv (Transport.Deployment.rng d) ~hops:3 in
  Transport.Deployment.run_for d 1_000.;
  Transport.Host.send send (I3apps.Anonymity.entry_id shield) "whisper";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check (list string)) "delivered through the chain" [ "whisper" ]
    (got ());
  Alcotest.(check int) "three chain ids" 3
    (List.length (I3apps.Anonymity.chain_ids shield))

let test_anonymity_entry_server_blind () =
  let d = deployment ~seed:131 ~n_servers:32 () in
  let recv = Transport.Deployment.new_host d () in
  let shield = I3apps.Anonymity.build recv (Transport.Deployment.rng d) ~hops:3 in
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check bool) "only the exit server maps an id to an address" true
    (I3apps.Anonymity.exit_server_only_knows_addr d shield);
  I3apps.Anonymity.tear_down shield;
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check int) "chain removed" 0 (Transport.Deployment.total_triggers d)

let test_anonymity_receiver_never_sees_sender_addr () =
  let d = deployment ~seed:132 ~n_servers:32 () in
  let recv = Transport.Deployment.new_host d () in
  let send = Transport.Deployment.new_host d () in
  let shield = I3apps.Anonymity.build recv (Transport.Deployment.rng d) ~hops:2 in
  Transport.Deployment.run_for d 1_000.;
  (* watch every message addressed to the receiver *)
  let sources = ref [] in
  Net.set_tap (Transport.Deployment.net d) (fun ~src ~dst bytes ->
      match I3.Codec.decode bytes with
      | Ok (I3.Message.Deliver _) when dst = Transport.Host.addr recv ->
          sources := src :: !sources
      | _ -> ());
  Transport.Host.send send (I3apps.Anonymity.entry_id shield) "x";
  Transport.Deployment.run_for d 1_000.;
  Alcotest.(check bool) "data arrived" true (!sources <> []);
  List.iter
    (fun src ->
      Alcotest.(check bool) "delivery came from a server, not the sender"
        true
        (src <> Transport.Host.addr send))
    !sources

(* --- Reliable delivery --- *)

let test_reliable_in_order_no_loss () =
  let d = deployment ~seed:140 ~n_servers:16 () in
  let rng = Transport.Deployment.rng d in
  let received = ref [] in
  let r =
    I3apps.Reliable.receiver (Transport.Deployment.new_host d ()) (Rng.split rng)
      ~on_data:(fun m -> received := m :: !received)
  in
  Transport.Deployment.run_for d 1_000.;
  let s =
    I3apps.Reliable.sender (Transport.Deployment.new_host d ()) (Rng.split rng)
      ~dest:(I3apps.Reliable.receiver_id r)
  in
  Transport.Deployment.run_for d 1_000.;
  let messages = List.init 40 (Printf.sprintf "msg-%02d") in
  List.iter (I3apps.Reliable.send s) messages;
  Transport.Deployment.run_for d 20_000.;
  Alcotest.(check (list string)) "all in order" messages (List.rev !received);
  Alcotest.(check int) "nothing in flight" 0 (I3apps.Reliable.in_flight s);
  Alcotest.(check int) "no spurious retransmissions" 0
    (I3apps.Reliable.retransmissions s)

let test_reliable_survives_heavy_loss () =
  let d = deployment ~seed:141 ~n_servers:16 () in
  let rng = Transport.Deployment.rng d in
  let received = ref [] in
  let r =
    I3apps.Reliable.receiver (Transport.Deployment.new_host d ()) (Rng.split rng)
      ~on_data:(fun m -> received := m :: !received)
  in
  Transport.Deployment.run_for d 1_000.;
  let s =
    I3apps.Reliable.sender ~rto_ms:500.
      (Transport.Deployment.new_host d ())
      (Rng.split rng)
      ~dest:(I3apps.Reliable.receiver_id r)
  in
  Transport.Deployment.run_for d 1_000.;
  (* 20% of every datagram — data, acks, refreshes — vanishes *)
  Net.apply (Transport.Deployment.net d) (Faults.Loss 0.2);
  let messages = List.init 50 (Printf.sprintf "msg-%02d") in
  List.iter (I3apps.Reliable.send s) messages;
  Transport.Deployment.run_for d 120_000.;
  Alcotest.(check (list string)) "all delivered in order despite loss"
    messages (List.rev !received);
  Alcotest.(check bool) "loss forced retransmissions" true
    (I3apps.Reliable.retransmissions s > 0)

let test_reliable_window_bounds_flight () =
  let d = deployment ~seed:142 ~n_servers:16 () in
  let rng = Transport.Deployment.rng d in
  let r =
    I3apps.Reliable.receiver (Transport.Deployment.new_host d ()) (Rng.split rng)
      ~on_data:(fun _ -> ())
  in
  Transport.Deployment.run_for d 1_000.;
  let s =
    I3apps.Reliable.sender ~window:4
      (Transport.Deployment.new_host d ())
      (Rng.split rng)
      ~dest:(I3apps.Reliable.receiver_id r)
  in
  Transport.Deployment.run_for d 1_000.;
  List.iter (I3apps.Reliable.send s) (List.init 20 string_of_int);
  Alcotest.(check int) "window caps flight" 4 (I3apps.Reliable.in_flight s);
  Alcotest.(check int) "rest queued" 16 (I3apps.Reliable.queued s);
  Transport.Deployment.run_for d 30_000.;
  Alcotest.(check int) "drained" 0 (I3apps.Reliable.in_flight s);
  Alcotest.(check int) "all delivered" 20 (I3apps.Reliable.received_count r)

let () =
  Alcotest.run "i3apps"
    [
      ( "multicast",
        [
          Alcotest.test_case "fanout to all members" `Quick test_multicast_fanout;
          Alcotest.test_case "unicast->multicast switch" `Quick test_multicast_unicast_switch;
          Alcotest.test_case "leave" `Quick test_multicast_leave;
        ] );
      ( "scalable multicast",
        [
          test_smc_plan_invariants;
          Alcotest.test_case "rejects degree 1" `Quick test_smc_plan_rejects_degree_one;
          Alcotest.test_case "end to end over tree" `Quick test_smc_end_to_end;
          Alcotest.test_case "small group attaches at root" `Quick test_smc_small_group_direct;
        ] );
      ( "anycast",
        [
          Alcotest.test_case "exactly-one delivery" `Quick test_anycast_exactly_one;
          test_anycast_ids_share_prefix;
          Alcotest.test_case "preference selects member" `Quick test_anycast_preference_selects;
        ] );
      ( "server selection",
        [
          Alcotest.test_case "weighted load balance" `Quick test_selection_weighted_load;
          Alcotest.test_case "adaptive capacity" `Quick test_selection_set_capacity;
          Alcotest.test_case "locality" `Quick test_selection_locality;
        ] );
      ( "service composition",
        [
          Alcotest.test_case "single transcoder" `Quick test_composition_single_service;
          Alcotest.test_case "two services in order" `Quick test_composition_two_services_in_order;
          Alcotest.test_case "stack limit" `Quick test_composition_stack_limit;
        ] );
      ( "heterogeneous multicast",
        [ Alcotest.test_case "MPEG + H.263 receivers" `Quick test_heterogeneous_multicast ] );
      ( "sessions",
        [
          Alcotest.test_case "handshake + duplex" `Quick test_session_handshake_and_duplex;
          Alcotest.test_case "survives simultaneous mobility" `Quick test_session_survives_mobility;
          Alcotest.test_case "close" `Quick test_session_close_tears_down;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "roaming flow" `Quick test_mobility_flow_roaming;
          Alcotest.test_case "simultaneous moves" `Quick test_mobility_simultaneous_moves;
        ] );
      ( "anonymity",
        [
          Alcotest.test_case "chain delivers" `Quick test_anonymity_chain_delivers;
          Alcotest.test_case "entry server blind" `Quick test_anonymity_entry_server_blind;
          Alcotest.test_case "receiver never sees sender" `Quick
            test_anonymity_receiver_never_sees_sender_addr;
        ] );
      ( "reliable delivery",
        [
          Alcotest.test_case "in order, no loss" `Quick test_reliable_in_order_no_loss;
          Alcotest.test_case "survives 20% loss" `Quick test_reliable_survives_heavy_loss;
          Alcotest.test_case "window bounds flight" `Quick test_reliable_window_bounds_flight;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "request/reply" `Quick test_proxy_request_reply;
          Alcotest.test_case "correlation" `Quick test_proxy_concurrent_requests_correlate;
          Alcotest.test_case "one-way" `Quick test_proxy_oneway;
          Alcotest.test_case "public id" `Quick test_proxy_public_id_stable;
        ] );
    ]
