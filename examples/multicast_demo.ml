(* Large-scale multicast (paper Sec. III-D): a bounded-degree hierarchy of
   triggers spreads the replication work over many servers while the
   sender still publishes to a single identifier. Run with:
   dune exec examples/multicast_demo.exe *)

let () =
  let d = Transport.Deployment.create ~seed:11 ~n_servers:64 () in
  let rng = Transport.Deployment.rng d in

  let member_count = 30 and degree = 3 in
  let members = Array.init member_count (fun _ -> Transport.Deployment.new_host d ()) in
  let heard = Array.make member_count 0 in
  Array.iteri
    (fun i m -> Transport.Host.on_receive m (fun ~stack:_ ~payload:_ -> heard.(i) <- heard.(i) + 1))
    members;

  let coordinator = Transport.Deployment.new_host d () in
  let publisher = Transport.Deployment.new_host d () in
  let root = I3apps.Multicast.named_group "launch-event" in
  let plan =
    I3apps.Scalable_multicast.plan rng ~root ~members:member_count ~degree
  in
  I3apps.Scalable_multicast.deploy ~coordinator ~members plan;
  Transport.Deployment.run_for d 1_000.;

  Printf.printf "tree: %d members, degree bound %d, %d internal trigger edges\n"
    member_count degree
    (List.length plan.I3apps.Scalable_multicast.internal_edges);
  let worst =
    List.fold_left
      (fun acc (_, n) -> max acc n)
      0
      (I3apps.Scalable_multicast.fanout_histogram plan)
  in
  Printf.printf "largest fan-out of any identifier: %d (<= %d)\n" worst degree;

  for i = 1 to 5 do
    I3apps.Scalable_multicast.send publisher plan (Printf.sprintf "frame-%d" i)
  done;
  Transport.Deployment.run_for d 5_000.;

  let total = Array.fold_left ( + ) 0 heard in
  Printf.printf "delivered %d/%d copies (5 frames x %d members)\n" total
    (5 * member_count) member_count;

  (* Contrast: flat multicast concentrates every copy on one server. *)
  let flat = I3apps.Multicast.create_group rng in
  Array.iter (fun m -> I3apps.Multicast.join m flat) members;
  Transport.Deployment.run_for d 1_000.;
  Printf.printf "flat group: %d triggers on one server; tree: max %d per id\n"
    (I3apps.Multicast.member_count d flat)
    worst
