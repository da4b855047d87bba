(* Two-process UDP loopback interop: spawn two [bin/i3d] daemons that
   form a ring dynamically (the second joins the first via [--join] and
   Chord stabilization), act as the end-host from this process, and
   drive the paper's core exchange over real sockets — insert a trigger,
   send a data packet, assert the payload comes back in a [Deliver]
   frame.

   The trigger id is chosen to be owned by the daemon we do NOT talk to,
   so both the insert and the data packet must cross the inter-server
   UDP hop (gateway -> responsible server) before delivery.

   Sandboxes without loopback sockets (or without fork/exec) skip
   rather than fail: the CI workflow runs this under a dedicated step
   where sockets are guaranteed. *)

(* The daemon sits next to this binary's directory in _build, wherever
   dune was invoked from. *)
let i3d_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "i3d.exe"))

let skip reason =
  Printf.printf "SKIP interop: %s\n%!" reason;
  exit 0

(* Reserve a free UDP port: bind port 0, read it back, close.  Between
   close and the daemon's bind another process could steal it — fine for
   CI, and retried implicitly by rerunning the test. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close s;
  port

let wait_ready name ic =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      failwith (name ^ ": no READY within 10s")
    else
      match input_line ic with
      | line when String.length line >= 5 && String.sub line 0 5 = "READY" -> ()
      | _ -> go ()
      | exception End_of_file -> failwith (name ^ ": exited before READY")
  in
  go ()

let spawn_daemon ~port ~join =
  let out_r, out_w = Unix.pipe () in
  let argv =
    [ i3d_path; "--host"; "127.0.0.1"; "--port"; string_of_int port;
      "--stabilize-ms"; "200"; "--rpc-timeout-ms"; "100" ]
    @ (if join = "" then [] else [ "--join"; join ])
  in
  let pid =
    Unix.create_process i3d_path (Array.of_list argv) Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  (pid, Unix.in_channel_of_descr out_r)

let () =
  (* Probe the environment before committing to the test. *)
  (match
     let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
     Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
     Unix.close s
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      skip ("no loopback UDP: " ^ Unix.error_message e));
  if not (Sys.file_exists i3d_path) then skip (i3d_path ^ " not built");

  let port_a = free_port () in
  let port_b = free_port () in
  let name_a = Printf.sprintf "127.0.0.1:%d" port_a in
  let name_b = Printf.sprintf "127.0.0.1:%d" port_b in
  let pids = ref [] in
  let cleanup () =
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !pids
  in
  at_exit cleanup;
  (* A bootstraps alone; B joins it — the ring forms dynamically. *)
  let pid_a, out_a = spawn_daemon ~port:port_a ~join:"" in
  pids := [ pid_a ];
  let pid_b, out_b = spawn_daemon ~port:port_b ~join:name_a in
  pids := [ pid_a; pid_b ];
  (match wait_ready "daemon A" out_a with
  | () -> ()
  | exception Failure m -> skip m);
  (match wait_ready "daemon B" out_b with
  | () -> ()
  | exception Failure m -> skip m);

  (* The host socket; its packed address is the trigger's target. *)
  let udp = Transport.Udp.create () in
  let me = Transport.Udp.local_addr udp in
  let pack port =
    Transport.Udp.pack
      ~ip:(Option.get (Transport.Udp.ip_of_string "127.0.0.1"))
      ~port
  in
  let daemon_a = pack port_a in
  let daemon_b = pack port_b in

  (* Wait for the two-node ring to converge — each daemon's successor
     pointer must name the other — by asking over the wire with the
     same [Get_state] probe the daemons answer for each other. *)
  let probe = Transport.Udp.create () in
  let probe_token = ref 0 in
  let succ_head dst =
    incr probe_token;
    let token = !probe_token in
    let result = ref None in
    Transport.Udp.set_handler probe (fun ~src:_ bytes ->
        match Chord.Codec.decode bytes with
        | Ok (Chord.Protocol.State { token = tk; succs; _ }) when tk = token ->
            result := Some succs
        | Ok _ | Error _ -> ());
    Transport.Udp.send probe ~dst
      (Chord.Codec.encode
         (Chord.Protocol.Get_state
            { token; reply_to = Transport.Udp.local_addr probe }));
    let deadline = Unix.gettimeofday () +. 0.3 in
    let rec go () =
      match !result with
      | Some (s :: _) -> Some s.Chord.Protocol.addr
      | Some [] -> None
      | None ->
          if Unix.gettimeofday () >= deadline then None
          else begin
            ignore (Transport.Udp.wait probe ~timeout:0.02);
            go ()
          end
    in
    go ()
  in
  let ring_deadline = Unix.gettimeofday () +. 15. in
  let rec await_ring () =
    if Unix.gettimeofday () > ring_deadline then skip "ring never converged"
    else if
      succ_head daemon_a = Some daemon_b && succ_head daemon_b = Some daemon_a
    then ()
    else begin
      Unix.sleepf 0.05;
      await_ring ()
    end
  in
  await_ring ();
  Transport.Udp.close probe;

  (* Find an id owned by daemon B — the daemons hash their own host:port
     names into node ids, so ownership is computable here (Chord
     successor rule: the smallest node id >= routing_key(id), wrapping
     to the smallest overall).  Then talk only to daemon A: every
     message must cross the inter-daemon hop. *)
  let node_a = Id.routing_key (Id.name_hash name_a) in
  let node_b = Id.routing_key (Id.name_hash name_b) in
  let owned_by_b id =
    let k = Id.routing_key id in
    match (Id.compare node_a k >= 0, Id.compare node_b k >= 0) with
    | true, false -> false
    | false, true -> true
    | (true, true | false, false) -> Id.compare node_b node_a < 0
  in
  let rng = Rng.of_int 99 in
  let rec id_owned_by_b () =
    let id = Id.random rng in
    if owned_by_b id then id else id_owned_by_b ()
  in
  let id = id_owned_by_b () in
  let trigger = I3.Trigger.to_host ~id ~owner:me in

  let send m = Transport.Udp.send udp ~dst:daemon_a (I3.Codec.encode m) in
  let recv ~what ~timeout pred =
    let deadline = Unix.gettimeofday () +. timeout in
    let got = ref None in
    Transport.Udp.set_handler udp (fun ~src:_ bytes ->
        match I3.Codec.decode bytes with
        | Ok m when pred m -> got := Some m
        | Ok _ | Error _ -> ());
    let rec go () =
      if !got <> None then !got
      else
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then None
        else begin
          ignore (Transport.Udp.wait udp ~timeout:(Float.min left 0.2));
          go ()
        end
    in
    match go () with
    | Some m -> m
    | None -> failwith ("timeout waiting for " ^ what)
  in

  (* 1. Insert (retransmit softly: UDP may drop). *)
  send (I3.Message.Insert { trigger; token = None });
  let _ack =
    recv ~what:"Insert_ack" ~timeout:5.0 (function
      | I3.Message.Insert_ack { trigger = t; _ } -> Id.equal t.id id
      | _ -> false)
  in

  (* 2. Data through daemon A; the rewrite happens at daemon B. *)
  let payload = "hello over real UDP" in
  let packet =
    I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload ~trace:7 ()
  in
  send (I3.Message.Data packet);
  let deliver =
    recv ~what:"Deliver" ~timeout:5.0 (function
      | I3.Message.Deliver { payload = p; _ } -> p = payload
      | _ -> false)
  in
  (match deliver with
  | I3.Message.Deliver { stack; trace; _ } ->
      assert (stack = []);
      assert (trace = 7)
  | _ -> assert false);
  Transport.Udp.close udp;
  print_endline
    "interop OK: dynamic join -> insert -> data -> delivery over loopback UDP"
