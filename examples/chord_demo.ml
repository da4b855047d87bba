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
  let start_node contacts =
    let addr = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
    let node =
      Chord.Protocol.create engine ~rng
        ~emit:(fun ~dst msg -> Net.send net ~src:addr ~dst msg)
        ~addr ~contacts ()
    in
    Net.set_handler net addr (fun ~src msg -> Chord.Protocol.handle node ~src msg);
    node
  in

  print_endline "bootstrapping a 24-node ring (joins every 2 s)...";
  let nodes = ref [| start_node [] |] in
  (* Each node knows only its own state; the ring's converged view is
     the static oracle over the ids of the nodes still alive. *)
  let alive () = List.filter Chord.Protocol.is_alive (Array.to_list !nodes) in
  let oracle () =
    Chord.Oracle.create
      (Array.of_list (List.map Chord.Protocol.node_id (alive ())))
  in
  let ring_consistent () =
    Chord.Oracle.converged
      (List.map
         (fun n ->
           ( Chord.Protocol.node_id n,
             Option.map
               (fun p -> p.Chord.Protocol.id)
               (Chord.Protocol.successor n) ))
         (alive ()))
  in
  for _ = 2 to 24 do
    let via = Rng.choose rng !nodes in
    nodes :=
      Array.append !nodes [| start_node [ Chord.Protocol.node_addr via ] |];
    Engine.run_for engine 2_000.
  done;
  Engine.run_for engine 900_000.;
  Printf.printf "t=%.0fs  ring consistent: %b\n"
    (Engine.now engine /. 1000.)
    (ring_consistent ());

  let correct = ref 0 in
  let total = 50 in
  for _ = 1 to total do
    let key = Id.random rng in
    let origin = Rng.choose rng !nodes in
    let ring = oracle () in
    let expected = Chord.Oracle.id ring (Chord.Oracle.responsible ring key) in
    Chord.Protocol.lookup origin key (function
      | Some p when Id.equal p.Chord.Protocol.id expected -> incr correct
      | _ -> ())
  done;
  Engine.run_for engine 30_000.;
  Printf.printf "lookups answered correctly: %d/%d\n" !correct total;

  print_endline "killing every fourth node...";
  Array.iteri (fun i n -> if i mod 4 = 0 then Chord.Protocol.kill n) !nodes;
  Engine.run_for engine 600_000.;
  Printf.printf "t=%.0fs  ring consistent after failures: %b (%d nodes alive)\n"
    (Engine.now engine /. 1000.)
    (ring_consistent ())
    (List.length (alive ()))
