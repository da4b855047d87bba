(* The self-organizing substrate (paper Secs. IV-C/D): watch a Chord ring
   assemble itself from sequential joins, answer lookups, and heal after a
   quarter of the nodes fail-stop. Run with:
   dune exec examples/chord_demo.exe *)

let () =
  let engine = Engine.create () in
  let rng = Rng.create 99L in
  (* The protocol is sans-IO: give every node an endpoint on a simulated
     net, send from it, and feed what arrives to [handle]. *)
  let net = Net.create engine ~rng ~latency:(fun _ _ -> 20.) () in
  let nw =
    Chord.Protocol.create engine ~rng
      ~emit:(fun ~src ~dst msg -> Net.send net ~src ~dst msg)
      ()
  in
  let start_node contacts =
    let addr = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
    let node =
      if contacts = [] then Chord.Protocol.bootstrap nw ~addr ()
      else Chord.Protocol.join nw ~addr ~contacts ()
    in
    Net.set_handler net addr (fun ~src msg -> Chord.Protocol.handle node ~src msg);
    node
  in

  print_endline "bootstrapping a 24-node ring (joins every 2 s)...";
  let nodes = ref [| start_node [] |] in
  for _ = 2 to 24 do
    let via = Rng.choose rng !nodes in
    nodes :=
      Array.append !nodes [| start_node [ Chord.Protocol.node_addr via ] |];
    Engine.run_for engine 2_000.
  done;
  Engine.run_for engine 900_000.;
  Printf.printf "t=%.0fs  ring consistent: %b\n"
    (Engine.now engine /. 1000.)
    (Chord.Protocol.ring_consistent nw);

  let correct = ref 0 in
  let total = 50 in
  for _ = 1 to total do
    let key = Id.random rng in
    let origin = Rng.choose rng !nodes in
    let expected = Chord.Protocol.expected_successor nw key in
    Chord.Protocol.lookup origin key (fun res ->
        match (res, expected) with
        | Some p, Some e
          when Id.equal p.Chord.Protocol.id (Chord.Protocol.node_id e) ->
            incr correct
        | _ -> ())
  done;
  Engine.run_for engine 30_000.;
  Printf.printf "lookups answered correctly: %d/%d\n" !correct total;

  print_endline "killing every fourth node...";
  Array.iteri (fun i n -> if i mod 4 = 0 then Chord.Protocol.kill n) !nodes;
  Engine.run_for engine 600_000.;
  Printf.printf "t=%.0fs  ring consistent after failures: %b (%d nodes alive)\n"
    (Engine.now engine /. 1000.)
    (Chord.Protocol.ring_consistent nw)
    (List.length (Chord.Protocol.alive_nodes nw))
