(* Reliability is an end-to-end affair: i3 is best-effort (paper
   Sec. II-C), so transports layer on top of identifiers exactly as they
   layer on IP addresses — with the bonus that the channel survives
   mobility. This demo pushes 30 messages through a network dropping 25%
   of all datagrams. Run with:  dune exec examples/reliable_demo.exe *)

let () =
  let d = Transport.Deployment.create ~seed:77 ~n_servers:16 () in
  let rng = Transport.Deployment.rng d in

  let received = ref [] in
  let recv_host = Transport.Deployment.new_host d () in
  let receiver =
    I3apps.Reliable.receiver recv_host (Rng.split rng) ~on_data:(fun m ->
        received := m :: !received)
  in
  Transport.Deployment.run_for d 1_000.;
  let send_host = Transport.Deployment.new_host d () in
  let sender =
    I3apps.Reliable.sender ~window:8 ~rto_ms:400. send_host (Rng.split rng)
      ~dest:(I3apps.Reliable.receiver_id receiver)
  in
  Transport.Deployment.run_for d 1_000.;

  Net.apply (Transport.Deployment.net d) (Faults.Loss 0.25);
  print_endline "sending 30 messages across a network dropping 25% of datagrams...";
  for i = 1 to 30 do
    I3apps.Reliable.send sender (Printf.sprintf "message-%02d" i)
  done;
  Transport.Deployment.run_for d 60_000.;

  Printf.printf "delivered: %d/30, in order: %b, retransmissions: %d\n"
    (I3apps.Reliable.received_count receiver)
    (List.rev !received = List.init 30 (fun i -> Printf.sprintf "message-%02d" (i + 1)))
    (I3apps.Reliable.retransmissions sender);

  (* the receiver moves mid-flow; the channel keeps going *)
  Net.apply (Transport.Deployment.net d) (Faults.Loss 0.);
  Transport.Host.move recv_host ~new_site:0;
  Transport.Deployment.run_for d 1_000.;
  I3apps.Reliable.send sender "after-the-move";
  Transport.Deployment.run_for d 5_000.;
  Printf.printf "after receiver mobility: %d/31 delivered\n"
    (I3apps.Reliable.received_count receiver)
