(* Tests for lib/chord: ring predicates, finger tables, the static oracle,
   routing policies and the dynamic protocol. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gen_id =
  QCheck2.Gen.(
    map
      (fun seed ->
        let r = Rng.create (Int64.of_int seed) in
        Id.random r)
      int)

(* --- Ring --- *)

let i = Id.of_int

let test_between_no_wrap () =
  Alcotest.(check bool) "5 in (1,9)" true (Chord.Ring.between_oo ~low:(i 1) ~high:(i 9) (i 5));
  Alcotest.(check bool) "1 not in (1,9)" false
    (Chord.Ring.between_oo ~low:(i 1) ~high:(i 9) (i 1));
  Alcotest.(check bool) "9 not in (1,9)" false
    (Chord.Ring.between_oo ~low:(i 1) ~high:(i 9) (i 9));
  Alcotest.(check bool) "9 in (1,9]" true
    (Chord.Ring.between_oc ~low:(i 1) ~high:(i 9) (i 9));
  Alcotest.(check bool) "1 in [1,9)" true
    (Chord.Ring.between_co ~low:(i 1) ~high:(i 9) (i 1))

let test_between_wrap () =
  (* interval (250, 3) wrapping through zero *)
  let low = i 250 and high = i 3 in
  Alcotest.(check bool) "255 wraps in" true (Chord.Ring.between_oo ~low ~high (i 255));
  Alcotest.(check bool) "0 wraps in" true (Chord.Ring.between_oo ~low ~high Id.zero);
  Alcotest.(check bool) "100 out" false (Chord.Ring.between_oo ~low ~high (i 100));
  Alcotest.(check bool) "max wraps in" true
    (Chord.Ring.between_oo ~low ~high Id.max_value)

let test_between_degenerate () =
  (* single-node ring: (a, a] is the whole circle *)
  let a = i 42 in
  Alcotest.(check bool) "anything in (a,a]" true
    (Chord.Ring.between_oc ~low:a ~high:a (i 7));
  Alcotest.(check bool) "a itself in (a,a]" true
    (Chord.Ring.between_oc ~low:a ~high:a a);
  Alcotest.(check bool) "a not in (a,a)" false
    (Chord.Ring.between_oo ~low:a ~high:a a);
  Alcotest.(check bool) "others in (a,a)" true
    (Chord.Ring.between_oo ~low:a ~high:a (i 7))

let test_between_oc_partition =
  qtest "x is in exactly one of (a,b] and (b,a]"
    QCheck2.Gen.(triple gen_id gen_id gen_id)
    (fun (a, b, x) ->
      Id.equal a b
      || Bool.not
           (Chord.Ring.between_oc ~low:a ~high:b x
           = Chord.Ring.between_oc ~low:b ~high:a x))

(* --- Finger_table --- *)

let peer id addr = { Chord.Finger_table.id; addr }

let test_ft_targets () =
  let ft = Chord.Finger_table.create ~self:Id.zero in
  Alcotest.(check bool) "target 0 = 1" true
    (Id.equal (Chord.Finger_table.target ft 0) (i 1));
  Alcotest.(check bool) "target 8 = 256" true
    (Id.equal (Chord.Finger_table.target ft 8) (i 256));
  Alcotest.(check int) "slots" 256 (Chord.Finger_table.slots ft)

let test_ft_closest_preceding () =
  let ft = Chord.Finger_table.create ~self:(i 0) in
  Chord.Finger_table.set ft 3 (Some (peer (i 10) 1));
  Chord.Finger_table.set ft 5 (Some (peer (i 40) 2));
  Chord.Finger_table.set ft 6 (Some (peer (i 70) 3));
  (match Chord.Finger_table.closest_preceding ft (i 50) with
  | Some p -> Alcotest.(check int) "picks 40" 2 p.Chord.Finger_table.addr
  | None -> Alcotest.fail "expected a finger");
  (match Chord.Finger_table.closest_preceding ft (i 5) with
  | Some _ -> Alcotest.fail "nothing precedes 5"
  | None -> ());
  (* extras participate *)
  match
    Chord.Finger_table.closest_preceding ft ~extra:[ peer (i 45) 9 ] (i 50)
  with
  | Some p -> Alcotest.(check int) "extra wins" 9 p.Chord.Finger_table.addr
  | None -> Alcotest.fail "expected extra"

let test_ft_fill_and_known_peers () =
  let rng = Rng.create 77L in
  let oracle = Chord.Oracle.random rng ~n:32 in
  let self = Chord.Oracle.id oracle 0 in
  let ft = Chord.Finger_table.create ~self in
  Chord.Finger_table.fill_from ft (fun key ->
      let idx = Chord.Oracle.successor_index oracle key in
      peer (Chord.Oracle.id oracle idx) idx);
  let peers = Chord.Finger_table.known_peers ft in
  Alcotest.(check bool) "about log n distinct" true
    (Array.length peers >= 4 && Array.length peers <= 32);
  (* first known peer must be the ring successor *)
  Alcotest.(check int) "successor first" 1 peers.(0).Chord.Finger_table.addr

(* The linear scan the table's bisection must agree with, over the test's
   own copy of the slots: slots in order, then [extra], a peer replacing
   the best only when strictly closer. *)
let linear_closest_preceding ~self slots extra key =
  List.fold_left
    (fun best p ->
      if Chord.Ring.between_oo ~low:self ~high:key p.Chord.Finger_table.id
      then
        match best with
        | Some b
          when not
                 (Chord.Ring.between_oo ~low:b.Chord.Finger_table.id ~high:key
                    p.Chord.Finger_table.id) ->
            best
        | _ -> Some p
      else best)
    None
    (List.filter_map Fun.id (Array.to_list slots) @ extra)

(* Random tables in the live shape (a few peers, each over a run of
   slots, some sharing an id under another address), changed by [set],
   [set None], re-[set] and [fill_from] between queries, each query with
   an [extra] list that overlaps the table.  Keys include the peers' own
   ids and their neighbours, where ties and open ends decide. *)
let test_ft_matches_bruteforce =
  qtest "closest_preceding = brute force" QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let self = Id.random rng in
      let ft = Chord.Finger_table.create ~self in
      let slots = Array.make 256 None in
      let set s p =
        Chord.Finger_table.set ft s p;
        slots.(s) <- p
      in
      let ids = Array.init (1 + Rng.int rng 8) (fun _ -> Id.random rng) in
      if Rng.int rng 4 = 0 then ids.(0) <- self;
      let next_addr = ref 0 in
      let pick_peer () =
        incr next_addr;
        (* Few addresses per id, so an equal id often carries another
           address. *)
        peer ids.(Rng.int rng (Array.length ids)) (!next_addr mod 3)
      in
      let pick_key () =
        match Rng.int rng 4 with
        | 0 -> Id.random rng
        | 1 -> self
        | 2 -> ids.(Rng.int rng (Array.length ids))
        | _ -> Id.succ ids.(Rng.int rng (Array.length ids))
      in
      let ok = ref true in
      for _ = 1 to 40 do
        (match Rng.int rng 6 with
        | 0 | 1 ->
            (* A run of slots to one peer, as fix-fingers leaves them. *)
            let p = Some (pick_peer ()) and first = Rng.int rng 256 in
            for s = first to min 255 (first + Rng.int rng 64) do
              set s p
            done
        | 2 -> set (Rng.int rng 256) None
        | 3 ->
            let s = Rng.int rng 256 in
            set s slots.(s)
        | 4 ->
            if Rng.int rng 8 = 0 then begin
              let fill = Array.init 256 (fun _ -> pick_peer ()) in
              let next = ref 0 in
              Chord.Finger_table.fill_from ft (fun _ ->
                  incr next;
                  fill.(!next - 1));
              Array.blit (Array.map Option.some fill) 0 slots 0 256
            end
        | _ -> ());
        for _ = 1 to 4 do
          let extra = List.init (Rng.int rng 4) (fun _ -> pick_peer ()) in
          let key = pick_key () in
          let got = Chord.Finger_table.closest_preceding ft ~extra key in
          let expected = linear_closest_preceding ~self slots extra key in
          match (got, expected) with
          | None, None -> ()
          | Some g, Some e
            when Id.equal g.Chord.Finger_table.id e.Chord.Finger_table.id
                 && g.addr = e.addr ->
              ()
          | _ -> ok := false
        done
      done;
      !ok)

(* --- Oracle --- *)

let test_oracle_sorted_dedup () =
  let o = Chord.Oracle.create [| i 5; i 1; i 5; i 9 |] in
  Alcotest.(check int) "dedup" 3 (Chord.Oracle.size o);
  Alcotest.(check bool) "sorted" true (Id.equal (Chord.Oracle.id o 0) (i 1))

let test_oracle_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Oracle.create: empty ring")
    (fun () -> ignore (Chord.Oracle.create [||]))

let test_oracle_successor () =
  let o = Chord.Oracle.create [| i 10; i 20; i 30 |] in
  let s k = Chord.Oracle.successor_index o (i k) in
  Alcotest.(check int) "succ 5" 0 (s 5);
  Alcotest.(check int) "succ 10 inclusive" 0 (s 10);
  Alcotest.(check int) "succ 11" 1 (s 11);
  Alcotest.(check int) "succ 30" 2 (s 30);
  Alcotest.(check int) "succ 31 wraps" 0 (s 31)

let test_oracle_successor_bruteforce =
  qtest ~count:100 "successor = brute force" QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let ids = Array.init 50 (fun _ -> Id.random rng) in
      let o = Chord.Oracle.create ids in
      let key = Id.random rng in
      let got = Chord.Oracle.id o (Chord.Oracle.successor_index o key) in
      (* brute force: smallest id >= key, else global smallest *)
      let sorted = Array.init (Chord.Oracle.size o) (Chord.Oracle.id o) in
      let expected =
        match Array.to_list sorted |> List.find_opt (fun x -> Id.compare x key >= 0) with
        | Some x -> x
        | None -> sorted.(0)
      in
      Id.equal got expected)

let test_oracle_random_server_ids () =
  let o = Chord.Oracle.random (Rng.create 5L) ~n:64 in
  Alcotest.(check int) "size" 64 (Chord.Oracle.size o);
  for j = 0 to 63 do
    Alcotest.(check bool) "low k bits zero" true (Id.is_server_id (Chord.Oracle.id o j))
  done

let test_oracle_prefix_locality =
  qtest ~count:100 "ids sharing a k-prefix share a server"
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let o = Chord.Oracle.random rng ~n:128 in
      let a = Id.random rng in
      let b = Id.random_with_prefix rng a in
      Chord.Oracle.responsible o a = Chord.Oracle.responsible o b)

let test_oracle_neighbors () =
  let o = Chord.Oracle.create [| i 10; i 20; i 30 |] in
  Alcotest.(check int) "succ of last wraps" 0 (Chord.Oracle.successor_of o 2);
  Alcotest.(check int) "pred of first wraps" 2 (Chord.Oracle.predecessor_of o 0);
  Alcotest.(check int) "nth" 1 (Chord.Oracle.nth_successor o 2 2)

let test_oracle_index_of () =
  let o = Chord.Oracle.create [| i 10; i 20 |] in
  Alcotest.(check (option int)) "found" (Some 1) (Chord.Oracle.index_of o (i 20));
  Alcotest.(check (option int)) "absent" None (Chord.Oracle.index_of o (i 15))

(* --- Routing --- *)

let mk_world ?(n = 256) seed =
  let rng = Rng.create (Int64.of_int seed) in
  let oracle = Chord.Oracle.random rng ~n in
  (* synthetic coordinates for a latency function *)
  let coords = Array.init n (fun _ -> (Rng.float rng 100., Rng.float rng 100.)) in
  let lat a b =
    let xa, ya = coords.(a) and xb, yb = coords.(b) in
    Float.max 1. (Float.abs (xa -. xb) +. Float.abs (ya -. yb))
  in
  (rng, oracle, lat)

let policies oracle lat =
  [
    Chord.Routing.create oracle Chord.Routing.Default;
    Chord.Routing.create oracle ~latency:lat
      (Chord.Routing.Closest_finger_replica { replicas = 10 });
    Chord.Routing.create oracle ~latency:lat
      (Chord.Routing.Closest_finger_set { gamma = 11 });
    Chord.Routing.create oracle ~latency:lat
      (Chord.Routing.Prefix_pns { digit_bits = 4; scan = 16 });
  ]

let test_routing_reaches_target () =
  let rng, oracle, lat = mk_world 3 in
  List.iter
    (fun router ->
      for _ = 1 to 100 do
        let key = Id.random rng in
        let start = Rng.int rng (Chord.Oracle.size oracle) in
        let path = Chord.Routing.route router ~start ~key in
        Alcotest.(check int) "ends at successor"
          (Chord.Oracle.successor_index oracle key)
          (List.nth path (List.length path - 1));
        Alcotest.(check int) "starts at start" start (List.hd path)
      done)
    (policies oracle lat)

let test_routing_loop_free () =
  let rng, oracle, lat = mk_world 7 in
  List.iter
    (fun router ->
      for _ = 1 to 50 do
        let key = Id.random rng in
        let start = Rng.int rng (Chord.Oracle.size oracle) in
        let path = Chord.Routing.route router ~start ~key in
        let uniq = List.sort_uniq compare path in
        Alcotest.(check int) "no repeats" (List.length path) (List.length uniq)
      done)
    (policies oracle lat)

let test_routing_log_hops () =
  let rng, oracle, _ = mk_world ~n:1024 11 in
  let router = Chord.Routing.create oracle Chord.Routing.Default in
  let worst = ref 0 in
  for _ = 1 to 300 do
    let key = Id.random rng in
    let start = Rng.int rng 1024 in
    let path = Chord.Routing.route router ~start ~key in
    worst := max !worst (List.length path - 1)
  done;
  (* log2 1024 = 10; default Chord takes at most ~log2 n hops *)
  Alcotest.(check bool) (Printf.sprintf "worst %d <= 14" !worst) true (!worst <= 14)

let test_routing_next_hop_consistent () =
  let rng, oracle, _ = mk_world 13 in
  let router = Chord.Routing.create oracle Chord.Routing.Default in
  for _ = 1 to 100 do
    let key = Id.random rng in
    let start = Rng.int rng (Chord.Oracle.size oracle) in
    let path = Chord.Routing.route router ~start ~key in
    (* walking next_hop reproduces the path *)
    let rec walk current acc =
      match Chord.Routing.next_hop router ~current ~key with
      | None -> List.rev (current :: acc)
      | Some n -> walk n (current :: acc)
    in
    Alcotest.(check (list int)) "next_hop = route" path (walk start [])
  done

let test_routing_self_responsible () =
  let _, oracle, _ = mk_world 17 in
  let router = Chord.Routing.create oracle Chord.Routing.Default in
  let idx = 5 in
  let key = Chord.Oracle.id oracle idx in
  Alcotest.(check (option int)) "no hop needed" None
    (Chord.Routing.next_hop router ~current:idx ~key);
  Alcotest.(check (list int)) "trivial path" [ idx ]
    (Chord.Routing.route router ~start:idx ~key)

let test_routing_policy_needs_latency () =
  let _, oracle, _ = mk_world 19 in
  Alcotest.check_raises "missing latency"
    (Invalid_argument "Routing.create: heuristic policies need a latency function")
    (fun () ->
      ignore
        (Chord.Routing.create oracle
           (Chord.Routing.Closest_finger_set { gamma = 11 })))

let test_routing_heuristics_cut_latency () =
  let rng, oracle, lat = mk_world ~n:512 23 in
  let measure router =
    let r = Rng.copy rng in
    let total = ref 0. in
    for _ = 1 to 200 do
      let key = Id.random r in
      let start = Rng.int r 512 in
      let path = Chord.Routing.route router ~start ~key in
      total := !total +. Chord.Routing.path_latency lat path
    done;
    !total
  in
  match policies oracle lat with
  | [ default; replica; fset; prefix ] ->
      let d = measure default
      and r = measure replica
      and f = measure fset
      and p = measure prefix in
      Alcotest.(check bool) "replica cheaper than default" true (r < d);
      Alcotest.(check bool) "finger-set cheaper than default" true (f < d);
      Alcotest.(check bool) "prefix-pns cheaper than default" true (p < d)
  | _ -> assert false

let test_routing_path_latency () =
  let lat a b = float_of_int (abs (a - b)) in
  Alcotest.(check (float 1e-9)) "sum" 4. (Chord.Routing.path_latency lat [ 0; 3; 4 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0. (Chord.Routing.path_latency lat [ 9 ])

let test_routing_candidate_counts () =
  let _, oracle, lat = mk_world ~n:512 29 in
  let fset =
    Chord.Routing.create oracle ~latency:lat
      (Chord.Routing.Closest_finger_set { gamma = 11 })
  in
  (* per-octave selection keeps about log2 n distinct fingers *)
  let c = Chord.Routing.candidate_count fset 0 in
  Alcotest.(check bool) (Printf.sprintf "kept %d in [5, 30]" c) true
    (c >= 5 && c <= 30)

(* --- Protocol --- *)

(* The protocol is sans-IO: these tests wire its nodes to a simulated
   net themselves — one endpoint per node, [emit] sends from it and its
   handler feeds [handle].  Every node draws from the test's one [rng]
   and counts into its one registry, and the test keeps every node it
   creates: a node knows only its own state, so ring-wide checks run
   over the nodes held here. *)
type proto = {
  engine : Engine.t;
  rng : Rng.t;
  metrics : Obs.Metrics.t;
  net : Chord.Protocol.msg Net.t;
  mutable nodes : Chord.Protocol.node list;
}

let mk_proto ?(latency = fun _ _ -> 10.) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create (Int64.of_int seed) in
  (* private registry: parallel test binaries must not share
     Obs.Metrics.default *)
  let metrics = Obs.Metrics.create () in
  let net = Net.create ~metrics engine ~rng ~latency () in
  (engine, rng, { engine; rng; metrics; net; nodes = [] })

let attach p ~site ~contacts =
  let addr = Net.register p.net ~site (fun ~src:_ _ -> ()) in
  let node =
    Chord.Protocol.create p.engine ~rng:p.rng ~metrics:p.metrics
      ~emit:(fun ~dst msg -> Net.send p.net ~src:addr ~dst msg)
      ~addr ~contacts ()
  in
  Net.set_handler p.net addr (fun ~src msg -> Chord.Protocol.handle node ~src msg);
  p.nodes <- node :: p.nodes;
  node

let bootstrap p ~site = attach p ~site ~contacts:[]

(* Join by address through [via], then [backups] (tried at the same
   time, in case [via] dies before it answers). *)
let join ?(backups = []) p ~site ~via =
  attach p ~site
    ~contacts:(List.map Chord.Protocol.node_addr (via :: backups))

(* The alive nodes, in ascending id order. *)
let alive_nodes p =
  List.filter Chord.Protocol.is_alive p.nodes
  |> List.sort (fun a b ->
         Id.compare (Chord.Protocol.node_id a) (Chord.Protocol.node_id b))

(* The converged ring over the alive nodes' ids. *)
let oracle p =
  Chord.Oracle.create
    (Array.of_list (List.map Chord.Protocol.node_id (alive_nodes p)))

(* The converged Chord invariant: every alive node's successor is the
   oracle's successor of its id (a lone node may have none). *)
let ring_consistent p =
  alive_nodes p = []
  ||
  let ring = oracle p in
  List.for_all
    (fun n ->
      match Chord.Oracle.index_of ring (Chord.Protocol.node_id n) with
      | None -> false
      | Some i -> (
          match Chord.Protocol.successor n with
          | Some s ->
              Id.equal s.Chord.Protocol.id
                (Chord.Oracle.id ring (Chord.Oracle.successor_of ring i))
          | None -> Chord.Oracle.size ring = 1))
    (alive_nodes p)

(* The id a correct lookup of [key] answers with. *)
let expected_successor p key =
  let ring = oracle p in
  Chord.Oracle.id ring (Chord.Oracle.responsible ring key)

let grow_ring engine rng p n =
  let b = bootstrap p ~site:0 in
  let nodes = ref [| b |] in
  for _ = 2 to n do
    let via = Rng.choose rng !nodes in
    let node = join p ~site:0 ~via in
    nodes := Array.append !nodes [| node |];
    Engine.run_for engine 2_000.
  done;
  Engine.run_for engine 400_000.;
  !nodes

let test_protocol_singleton () =
  let engine, _, p = mk_proto () in
  let b = bootstrap p ~site:0 in
  Engine.run_for engine 100_000.;
  Alcotest.(check bool) "alone is consistent" true (ring_consistent p);
  let got = ref None in
  Chord.Protocol.lookup b (Id.of_int 42) (fun r -> got := r);
  Engine.run_for engine 10_000.;
  match !got with
  | Some p ->
      Alcotest.(check bool) "self owns everything" true
        (Id.equal p.Chord.Protocol.id (Chord.Protocol.node_id b))
  | None -> Alcotest.fail "lookup failed"

let test_protocol_two_nodes () =
  let engine, _, p = mk_proto () in
  let a = bootstrap p ~site:0 in
  let b = join p ~site:1 ~via:a in
  Engine.run_for engine 200_000.;
  Alcotest.(check bool) "two-node ring" true (ring_consistent p);
  (match Chord.Protocol.successor a with
  | Some p -> Alcotest.(check bool) "a -> b" true (Id.equal p.Chord.Protocol.id (Chord.Protocol.node_id b))
  | None -> Alcotest.fail "a has no successor");
  match Chord.Protocol.predecessor a with
  | Some p -> Alcotest.(check bool) "pred a = b" true (Id.equal p.Chord.Protocol.id (Chord.Protocol.node_id b))
  | None -> Alcotest.fail "a has no predecessor"

let test_protocol_convergence () =
  let engine, rng, p = mk_proto ~seed:2 () in
  let _ = grow_ring engine rng p 24 in
  Alcotest.(check bool) "ring consistent" true (ring_consistent p)

let test_protocol_lookup_correct () =
  let engine, rng, p = mk_proto ~seed:3 () in
  let nodes = grow_ring engine rng p 16 in
  let ok = ref 0 in
  let total = 100 in
  for _ = 1 to total do
    let key = Id.random rng in
    let origin = Rng.choose rng nodes in
    let expected = expected_successor p key in
    Chord.Protocol.lookup origin key (function
      | Some p when Id.equal p.Chord.Protocol.id expected -> incr ok
      | _ -> ())
  done;
  Engine.run_for engine 60_000.;
  Alcotest.(check int) "all lookups correct" total !ok

let test_protocol_heals_after_failures () =
  let engine, rng, p = mk_proto ~seed:4 () in
  let nodes = grow_ring engine rng p 20 in
  Array.iteri (fun idx n -> if idx mod 4 = 0 then Chord.Protocol.kill n) nodes;
  Engine.run_for engine 600_000.;
  Alcotest.(check bool) "ring healed" true (ring_consistent p);
  Alcotest.(check int) "alive count" 15 (List.length (alive_nodes p))

(* A node without a predecessor -- an heir whose predecessor died, or a
   joiner not yet notified -- claims no key: it cannot tell where its
   arc begins, and any guess overlaps a live peer's arc.  So while such
   nodes exist, no key may have two owners. *)
let test_protocol_no_claim_without_predecessor () =
  let engine, rng, p = mk_proto ~seed:6 () in
  let nodes = grow_ring engine rng p 12 in
  let keys = List.init 64 (fun _ -> Id.random rng) in
  let orphans = ref 0 and shared = ref 0 in
  let check () =
    let alive = alive_nodes p in
    let orphaned =
      List.filter (fun n -> Chord.Protocol.predecessor n = None) alive
    in
    if orphaned <> [] then begin
      orphans := !orphans + List.length orphaned;
      List.iter
        (fun key ->
          let owners = List.filter (fun n -> Chord.Protocol.owns n key) alive in
          if List.length owners > 1 then incr shared)
        keys
    end
  in
  let run () =
    for _ = 1 to 3_000 do
      Engine.run_for engine 100.;
      check ()
    done
  in
  Chord.Protocol.kill nodes.(2);
  run ();
  let heir_orphans = !orphans in
  ignore (join p ~site:0 ~via:nodes.(5));
  run ();
  Alcotest.(check bool) "the heir went without a predecessor" true
    (heir_orphans > 0);
  Alcotest.(check bool) "so did the joiner" true (!orphans > heir_orphans);
  Alcotest.(check int) "no key had two owners meanwhile" 0 !shared

let test_protocol_lookup_after_failures () =
  let engine, rng, p = mk_proto ~seed:5 () in
  let nodes = grow_ring engine rng p 16 in
  Chord.Protocol.kill nodes.(3);
  Chord.Protocol.kill nodes.(9);
  Engine.run_for engine 600_000.;
  let alive = alive_nodes p in
  let origin = List.hd alive in
  let ok = ref 0 in
  for s = 1 to 50 do
    let key = Id.random (Rng.create (Int64.of_int s)) in
    let expected = expected_successor p key in
    Chord.Protocol.lookup origin key (function
      | Some p when Id.equal p.Chord.Protocol.id expected -> incr ok
      | _ -> ())
  done;
  Engine.run_for engine 60_000.;
  Alcotest.(check bool) (Printf.sprintf "%d/50 correct" !ok) true (!ok >= 48)

let test_protocol_survives_loss () =
  let engine, rng, p = mk_proto ~seed:6 () in
  (* 10% message loss from the very start; the soft-state protocol must
     still converge because every exchange is periodically retried. *)
  Net.apply p.net (Faults.Loss 0.1);
  let b = bootstrap p ~site:0 in
  let nodes = ref [| b |] in
  for _ = 2 to 12 do
    let via = Rng.choose rng !nodes in
    let node = join p ~site:0 ~via in
    nodes := Array.append !nodes [| node |];
    Engine.run_for engine 20_000.
  done;
  Engine.run_for engine 1_500_000.;
  Alcotest.(check bool) "consistent under loss" true
    (ring_consistent p)

let test_protocol_churn () =
  (* Interleaved joins and failures over ~40 virtual minutes. *)
  let engine, rng, p = mk_proto ~seed:8 () in
  let b = bootstrap p ~site:0 in
  let nodes = ref [ b ] in
  for round = 1 to 12 do
    let alive = List.filter Chord.Protocol.is_alive !nodes in
    let via =
      match alive with
      | [] -> b
      | alive -> Rng.choose rng (Array.of_list alive)
    in
    (* The victim below may be [via] itself, killed before it answers:
       every other alive node is a backup contact. *)
    let backups = List.filter (fun n -> n != via) alive in
    nodes := join p ~site:0 ~via ~backups :: !nodes;
    if round mod 3 = 0 then begin
      match List.filter Chord.Protocol.is_alive !nodes with
      | _ :: _ :: _ :: victim :: _ -> Chord.Protocol.kill victim
      | _ -> ()
    end;
    Engine.run_for engine 60_000.
  done;
  Engine.run_for engine 1_800_000.;
  Alcotest.(check bool) "ring consistent after churn" true
    (ring_consistent p);
  (* and lookups agree with ground truth *)
  let alive = alive_nodes p in
  let origin = List.hd alive in
  let ok = ref 0 in
  for s = 1 to 30 do
    let key = Id.random (Rng.create (Int64.of_int (1000 + s))) in
    let expected = expected_successor p key in
    Chord.Protocol.lookup origin key (function
      | Some p when Id.equal p.Chord.Protocol.id expected -> incr ok
      | _ -> ())
  done;
  Engine.run_for engine 60_000.;
  Alcotest.(check bool) (Printf.sprintf "%d/30 lookups" !ok) true (!ok >= 29)

let test_protocol_concurrent_joins () =
  let engine, _, p = mk_proto ~seed:7 () in
  let b = bootstrap p ~site:0 in
  (* all join through the bootstrap at the same instant *)
  let _nodes = List.init 10 (fun i -> join p ~site:i ~via:b) in
  Engine.run_for engine 900_000.;
  Alcotest.(check bool) "concurrent joins converge" true
    (ring_consistent p)

let () =
  Alcotest.run "chord"
    [
      ( "ring",
        [
          Alcotest.test_case "no wrap" `Quick test_between_no_wrap;
          Alcotest.test_case "wraparound" `Quick test_between_wrap;
          Alcotest.test_case "degenerate" `Quick test_between_degenerate;
          test_between_oc_partition;
        ] );
      ( "finger table",
        [
          Alcotest.test_case "targets" `Quick test_ft_targets;
          Alcotest.test_case "closest preceding" `Quick test_ft_closest_preceding;
          Alcotest.test_case "fill + known peers" `Quick test_ft_fill_and_known_peers;
          test_ft_matches_bruteforce;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "sorted dedup" `Quick test_oracle_sorted_dedup;
          Alcotest.test_case "empty rejected" `Quick test_oracle_empty;
          Alcotest.test_case "successor cases" `Quick test_oracle_successor;
          test_oracle_successor_bruteforce;
          Alcotest.test_case "random server ids" `Quick test_oracle_random_server_ids;
          test_oracle_prefix_locality;
          Alcotest.test_case "ring neighbors" `Quick test_oracle_neighbors;
          Alcotest.test_case "index_of" `Quick test_oracle_index_of;
        ] );
      ( "routing",
        [
          Alcotest.test_case "reaches target (all policies)" `Quick test_routing_reaches_target;
          Alcotest.test_case "loop free (all policies)" `Quick test_routing_loop_free;
          Alcotest.test_case "O(log n) hops" `Quick test_routing_log_hops;
          Alcotest.test_case "next_hop consistent" `Quick test_routing_next_hop_consistent;
          Alcotest.test_case "self responsible" `Quick test_routing_self_responsible;
          Alcotest.test_case "latency required" `Quick test_routing_policy_needs_latency;
          Alcotest.test_case "heuristics cut latency" `Quick test_routing_heuristics_cut_latency;
          Alcotest.test_case "path latency" `Quick test_routing_path_latency;
          Alcotest.test_case "candidate counts" `Quick test_routing_candidate_counts;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "singleton" `Quick test_protocol_singleton;
          Alcotest.test_case "two nodes" `Quick test_protocol_two_nodes;
          Alcotest.test_case "convergence" `Slow test_protocol_convergence;
          Alcotest.test_case "lookups correct" `Slow test_protocol_lookup_correct;
          Alcotest.test_case "heals after failures" `Slow test_protocol_heals_after_failures;
          Alcotest.test_case "no claim without predecessor" `Quick
            test_protocol_no_claim_without_predecessor;
          Alcotest.test_case "lookup after failures" `Slow test_protocol_lookup_after_failures;
          Alcotest.test_case "converges under loss" `Slow test_protocol_survives_loss;
          Alcotest.test_case "concurrent joins" `Slow test_protocol_concurrent_joins;
          Alcotest.test_case "join/leave churn" `Slow test_protocol_churn;
        ] );
    ]
