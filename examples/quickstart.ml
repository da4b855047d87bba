(* Quickstart: the rendezvous abstraction in a dozen lines.

   A receiver expresses interest by inserting a trigger (id, addr); a
   sender transmits (id, data) without knowing who — or how many — will
   receive it. Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A simulated deployment: 32 i3 servers on a Chord ring, 5 ms links. *)
  let d = Transport.Deployment.create ~seed:42 ~n_servers:32 () in

  (* Two end-hosts. Each knows a few i3 servers; nothing else. *)
  let alice = Transport.Deployment.new_host d () in
  let bob = Transport.Deployment.new_host d () in

  (* Bob picks a private identifier and registers interest. *)
  let id = Transport.Host.new_private_id bob in
  Transport.Host.on_receive bob (fun ~stack:_ ~payload ->
      Printf.printf "bob received: %S\n" payload);
  Transport.Host.insert_trigger bob id;
  Transport.Deployment.run_for d 1_000.;

  (* Alice sends to the identifier — she never learns Bob's address. *)
  Transport.Host.send alice id "hello through the indirection layer";
  Transport.Deployment.run_for d 1_000.;

  (* The responsible server's address is now cached at Alice, so further
     packets take a single overlay hop. *)
  (match Transport.Host.cached_server_for alice id with
  | Some server -> Printf.printf "alice cached i3 server @%d for the flow\n" server
  | None -> print_endline "no cache entry (unexpected)");
  Transport.Host.send alice id "second packet, sent directly";
  Transport.Deployment.run_for d 1_000.;

  (* Multicast needs no new machinery: a second trigger on the same id. *)
  let carol = Transport.Deployment.new_host d () in
  Transport.Host.on_receive carol (fun ~stack:_ ~payload ->
      Printf.printf "carol received: %S\n" payload);
  Transport.Host.insert_trigger carol id;
  Transport.Deployment.run_for d 1_000.;
  Transport.Host.send alice id "now it is multicast";
  Transport.Deployment.run_for d 1_000.;

  Printf.printf "triggers stored in the infrastructure: %d\n"
    (Transport.Deployment.total_triggers d)
