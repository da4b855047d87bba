(* The paper's prototype architecture end-to-end: i3 servers run the live
   Chord protocol and forward packets from their own, possibly stale,
   local view — there is no global membership oracle anywhere. Watch the
   ring grow one join at a time, partition responsibility, carry traffic,
   and heal around a failure. Run with:
   dune exec examples/decentralized_demo.exe *)

let () =
  let d = Transport.Dynamic.create ~seed:2026 () in
  print_endline "growing a 12-server i3 ring through protocol joins...";
  (* One site per server.  Trigger inserts carry no hop bound yet, and
     one caught between two servers' disagreeing views would cycle
     among servers on one site without virtual time passing. *)
  for site = 0 to 11 do
    ignore (Transport.Dynamic.add_server d ~site ());
    Transport.Dynamic.run_for d 3_000.
  done;
  Transport.Dynamic.run_for d 120_000.;

  (* responsibility is partitioned with no central coordination *)
  let rng = Rng.create 1L in
  let single = ref 0 in
  for _ = 1 to 100 do
    if List.length (Transport.Dynamic.owners_of d (Id.random rng)) = 1 then
      incr single
  done;
  Printf.printf "keys with exactly one responsible server: %d/100\n" !single;

  let alice = Transport.Dynamic.new_host d () in
  let bob = Transport.Dynamic.new_host d () in
  Transport.Host.on_receive bob (fun ~stack:_ ~payload ->
      Printf.printf "bob received: %S\n" payload);
  let id = Transport.Host.new_private_id bob in
  Transport.Host.insert_trigger bob id;
  Transport.Dynamic.run_for d 2_000.;
  Transport.Host.send alice id "over a self-organized ring";
  Transport.Dynamic.run_for d 2_000.;

  (* kill the server holding Bob's trigger; the ring notices via RPC
     suspicion, stabilization reroutes the arc, and Bob's next refresh
     re-installs the trigger on the successor *)
  (match Transport.Dynamic.owners_of d id with
  | [ owner ] ->
      Printf.printf "killing the responsible server (%s)...\n"
        (Format.asprintf "%a" Id.pp (I3.Server.id owner));
      Transport.Dynamic.kill_server d owner
  | _ -> print_endline "unexpected ownership");
  Transport.Dynamic.run_for d 100_000.;
  Printf.printf "servers alive: %d; owners of bob's id now: %d\n"
    (List.length (Transport.Dynamic.servers d))
    (List.length (Transport.Dynamic.owners_of d id));
  Transport.Host.send alice id "still reachable after the failure";
  Transport.Dynamic.run_for d 3_000.
