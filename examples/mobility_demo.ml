(* Mobility (paper Sec. II-D1): a laptop streams audio while hopping
   between networks; the sender addresses only an identifier and never
   notices. At the end both endpoints move at the same instant — the case
   that defeats home-agent designs. Run with:
   dune exec examples/mobility_demo.exe *)

let () =
  let rng = Rng.create 7L in
  let model = Topology.Model.build rng Topology.Model.Transit_stub ~n:400 in
  let d = Transport.Deployment.create ~seed:7 ~model ~n_servers:64 () in
  let engine = Transport.Deployment.engine d in

  let laptop = Transport.Deployment.new_host d () in
  let radio = Transport.Deployment.new_host d () in
  let received = ref 0 in
  let flow =
    I3apps.Mobility.establish ~rng ~listener:laptop ~sender:radio
      ~on_data:(fun chunk ->
        incr received;
        if !received mod 5 = 0 then
          Printf.printf "t=%6.0f ms  laptop@site%-4d  received %2d chunks (%s)\n"
            (Engine.now engine) (Transport.Host.site laptop) !received chunk)
  in
  Transport.Deployment.run_for d 1_000.;

  (* Roam through three networks, one hop every 4 s of virtual time. *)
  let sites = Topology.Model.eligible_sites model in
  I3apps.Mobility.roam ~engine flow
    ~sites:[ sites.(10); sites.(200); sites.(300) ]
    ~dwell_ms:4_000.;

  (* Stream one chunk per 500 ms for 15 s. *)
  for i = 1 to 30 do
    I3apps.Mobility.send flow (Printf.sprintf "chunk-%02d" i);
    Transport.Deployment.run_for d 500.
  done;
  Printf.printf "received %d/30 chunks across 3 moves\n" (I3apps.Mobility.received flow);

  (* Simultaneous mobility of both ends. *)
  I3apps.Mobility.move_receiver flow ~new_site:sites.(5);
  I3apps.Mobility.move_sender flow ~new_site:sites.(6);
  Transport.Deployment.run_for d 1_000.;
  I3apps.Mobility.send flow "after-simultaneous-move";
  Transport.Deployment.run_for d 1_000.;
  Printf.printf "after simultaneous move: %d chunks total\n"
    (I3apps.Mobility.received flow)
