(* A supervised cluster of real [bin/i3d] daemons on loopback UDP.

   The harness is the live-process analogue of the simulator's
   [Transport.Dynamic]: it forks N daemons that form one ring
   *dynamically* — every member is spawned with the other members as
   [--join] contacts and Chord stabilization does the rest — supervises
   them
   (reap-on-exit, restart with exponential backoff, readiness probes
   over the Ping/Pong status frames).  Its [kill] (a real SIGKILL) and
   [restart] (re-arm supervision, respawn) are how [Fleet.live] runs a
   [Faults.schedule]'s [Crash i] and [Restart i], so one scenario
   vocabulary drives sim and wire alike.

   Ring visibility comes over the wire, not from shared memory: the
   harness owns a second probe socket speaking [Chord.Codec] and asks
   any member for its [State] (successor list, predecessor), which is
   how [await_converged] decides the live members agree on one ring —
   and how the partition/re-merge test watches two halves heal.
   [pause]/[resume] (SIGSTOP/SIGCONT) are the process-level partition:
   a stopped daemon is unreachable but loses no state, exactly a
   severed link's view from the outside.

   Everything observable lands in the metrics registry
   ([cluster.spawns], [cluster.crashes], [cluster.restarts]); each
   daemon writes its own registry to a per-member JSON dump on graceful
   stop, which {!metrics_dumps} reads back — that is how the acceptance
   test pins [wire.decode_errors = 0] against processes that no longer
   exist. *)

let wall_ms () = Unix.gettimeofday () *. 1000.

type member = {
  index : int;
  name : string;  (* host:port, the ring-hash key *)
  port : int;
  addr : int;  (* packed ip:port *)
  log_path : string;
  metrics_path : string;
  mutable pid : int option;
  mutable supervised : bool;
      (* false between a scheduled Crash and its Restart: the scenario
         owns the downtime, the supervisor must not heal it early *)
  mutable backoff_ms : float;
  mutable respawn_at : float option;  (* wall ms; pending delayed respawn *)
  mutable last_spawn : float;
}

(* Respawn delays start at the base and double per unexpected exit up to
   the cap; a child alive [stable_after_ms] resets its delay to base. *)
let restart_backoff_base_ms = 100.
let restart_backoff_max_ms = 3_000.
let stable_after_ms = 5_000.

type config = {
  ping_timeout_ms : float;
  stabilize_ms : float;  (* daemons' Chord stabilization period *)
  rpc_timeout_ms : float;  (* daemons' Chord RPC timeout *)
  metrics_flush_ms : float;
      (* daemons' periodic metrics-flush interval (0 = exit dump only) *)
  daemon_loss : float;
      (* forwarded as i3d --loss: each daemon drops this fraction of its
         own sends (0 = off), so faults land inside the mesh, not just
         at the client edge *)
  daemon_fault_seed : int;
      (* base seed for the daemons' --fault-seed; member i gets base+i,
         so a whole-cluster chaos run replays from one number *)
}

let default_config =
  {
    ping_timeout_ms = 300.;
    (* Fast protocol timers: tests wait for real convergence, so the
       paper's 30 s periods would dominate wall time. *)
    stabilize_ms = 300.;
    rpc_timeout_ms = 150.;
    (* Chaos kills with SIGKILL; a 1 s flush bounds how stale a dead
       member's last metrics generation can be. *)
    metrics_flush_ms = 1_000.;
    daemon_loss = 0.;
    daemon_fault_seed = 1;
  }

type t = {
  i3d : string;
  host : string;
  dir : string;
  cfg : config;
  members : member array;
  probe : Transport.Client.t;  (* supervisor's own socket: pings *)
  chord_probe : Transport.Udp.t;
      (* a second socket speaking Chord.Codec: Get_state ring probes
         must not land on the client socket, where a State frame would
         read as an i3 decode error *)
  mutable probe_token : int;
  mutable on_event : string -> unit;
  c_spawns : Obs.Metrics.counter;
  c_crashes : Obs.Metrics.counter;
  c_restarts : Obs.Metrics.counter;
}

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

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base
        (Printf.sprintf "i3cluster-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let create ?(metrics = Obs.Metrics.default) ?(config = default_config)
    ?(host = "127.0.0.1") ?dir ?(rng = Rng.of_int 1) ~i3d ~n () =
  if n < 1 then invalid_arg "Cluster.create: need n >= 1";
  let dir =
    match dir with
    | None -> fresh_dir ()
    | Some d ->
        (try Unix.mkdir d 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        d
  in
  let members =
    Array.init n (fun index ->
        let port = free_port () in
        let name = Printf.sprintf "%s:%d" host port in
        {
          index;
          name;
          port;
          addr =
            Transport.Udp.pack
              ~ip:(Option.get (Transport.Udp.ip_of_string host))
              ~port;
          log_path = Filename.concat dir (Printf.sprintf "i3d-%d.log" index);
          metrics_path =
            Filename.concat dir (Printf.sprintf "i3d-%d-metrics.json" index);
          pid = None;
          supervised = true;
          backoff_ms = restart_backoff_base_ms;
          respawn_at = None;
          last_spawn = 0.;
        })
  in
  let probe_udp = Transport.Udp.create ~host () in
  let probe =
    Transport.Client.create ~metrics ~instance:"supervisor" ~rng:(Rng.split rng)
      ~gateways:(Array.to_list (Array.map (fun m -> m.addr) members))
      probe_udp
  in
  let chord_probe = Transport.Udp.create ~host () in
  let labels = [ ("instance", "cluster") ] in
  let c name = Obs.Metrics.counter metrics ~labels name in
  {
    i3d;
    host;
    dir;
    cfg = config;
    members;
    probe;
    chord_probe;
    probe_token = 0;
    on_event = (fun _ -> ());
    c_spawns = c "cluster.spawns";
    c_crashes = c "cluster.crashes";
    c_restarts = c "cluster.restarts";
  }

let on_event t f = t.on_event <- f
let event t fmt = Printf.ksprintf (fun s -> t.on_event s) fmt
let dir t = t.dir
let members t = Array.to_list t.members
let member t i = t.members.(i)
let addrs t = Array.to_list (Array.map (fun m -> m.addr) t.members)

(* A member's Chord identity, exactly as the daemon derives it. *)
let node_id m = Id.routing_key (Id.name_hash m.name)

let join_arg t i =
  String.concat ","
    (Array.to_list t.members
    |> List.filter (fun m -> m.index <> i)
    |> List.map (fun m -> m.name))

(* The Chord ring over the given members' node ids (as
   [Chord.Oracle]), with the members in its index order. *)
let ring_of members =
  let ring = Array.of_list members in
  Array.sort (fun a b -> Id.compare (node_id a) (node_id b)) ring;
  (Chord.Oracle.create (Array.map node_id ring), ring)

(* Which member owns an identifier once the ring has converged: the
   Chord successor rule the daemons' protocol state converges to,
   computed here from names alone.  [owner_index t] builds the ring
   once, so mapping it over many identifiers costs one lookup each. *)
let owner_index t =
  let oracle, ring = ring_of (Array.to_list t.members) in
  fun id -> ring.(Chord.Oracle.responsible oracle id).index

let spawn t i =
  let m = t.members.(i) in
  assert (m.pid = None);
  let log_fd =
    Unix.openfile m.log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600
  in
  let join = join_arg t i in
  let argv =
    Array.of_list
      ([
         t.i3d;
         "--host";
         t.host;
         "--port";
         string_of_int m.port;
         "--stabilize-ms";
         Printf.sprintf "%g" t.cfg.stabilize_ms;
         "--rpc-timeout-ms";
         Printf.sprintf "%g" t.cfg.rpc_timeout_ms;
         "--metrics-out";
         m.metrics_path;
       ]
      @ (if t.cfg.metrics_flush_ms > 0. then
           [ "--metrics-flush-ms"; Printf.sprintf "%g" t.cfg.metrics_flush_ms ]
         else [])
      @ (if t.cfg.daemon_loss > 0. then
           [
             "--loss";
             Printf.sprintf "%g" t.cfg.daemon_loss;
             "--fault-seed";
             string_of_int (t.cfg.daemon_fault_seed + i);
           ]
         else [])
      @ if join = "" then [] else [ "--join"; join ])
  in
  let pid = Unix.create_process t.i3d argv Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  m.pid <- Some pid;
  m.last_spawn <- wall_ms ();
  m.respawn_at <- None;
  Obs.Metrics.incr t.c_spawns;
  event t "spawn %s (pid %d)" m.name pid

let ping t i ~timeout_ms =
  Transport.Client.ping t.probe ~dst:t.members.(i).addr ~timeout_ms

let ready_timeout_ms = 10_000.

(* Wait until every spawned member answers a Ping; readiness by
   behavior, not by parsing stdout. *)
let await_ready t =
  let deadline = wall_ms () +. ready_timeout_ms in
  let rec member_ready i =
    if wall_ms () >= deadline then false
    else if ping t i ~timeout_ms:t.cfg.ping_timeout_ms <> None then true
    else member_ready i
  in
  Array.for_all
    (fun m -> m.pid = None || member_ready m.index)
    t.members

let start t =
  Array.iteri (fun i _ -> spawn t i) t.members;
  await_ready t

let signal_member t i sg =
  match t.members.(i).pid with
  | None -> ()
  | Some pid -> ( try Unix.kill pid sg with Unix.Unix_error _ -> ())

(* Scheduled fail-stop: SIGKILL — no shutdown path runs, soft state is
   gone, exactly the paper's server-failure model.  Supervision is
   disarmed until the scenario's Restart. *)
let kill t i =
  let m = t.members.(i) in
  m.supervised <- false;
  (match m.pid with
  | None -> ()
  | Some pid ->
      event t "kill %s (pid %d)" m.name pid;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Obs.Metrics.incr t.c_crashes);
  m.pid <- None

let restart t i =
  let m = t.members.(i) in
  m.supervised <- true;
  if m.pid = None then begin
    Obs.Metrics.incr t.c_restarts;
    spawn t i;
    event t "restart %s" m.name
  end

(* Process-level partition: a SIGSTOPped daemon is unreachable (its
   socket queue fills and overflows) but keeps all protocol state —
   from everyone else's viewpoint, indistinguishable from a severed
   link.  Supervision is disarmed so the pause isn't "healed". *)
let pause t i =
  let m = t.members.(i) in
  m.supervised <- false;
  event t "pause %s" m.name;
  signal_member t i Sys.sigstop

let resume t i =
  let m = t.members.(i) in
  m.supervised <- true;
  event t "resume %s" m.name;
  signal_member t i Sys.sigcont

(* --- ring-state probes (over the wire, like any peer) --- *)

type ring_state = {
  self : Chord.Protocol.peer;
  pred : Chord.Protocol.peer option;
  succs : Chord.Protocol.peer list;
}

(* One Get_state round-trip against member [i] on the dedicated chord
   probe socket.  Replies are matched by token, so a straggler from an
   earlier timed-out probe cannot satisfy this one. *)
let ring_state t i ~timeout_ms =
  t.probe_token <- t.probe_token + 1;
  let token = t.probe_token in
  let result = ref None in
  Transport.Udp.set_handler t.chord_probe (fun ~src:_ bytes ->
      match Chord.Codec.decode bytes with
      | Ok (Chord.Protocol.State { token = tk; self; pred; succs })
        when tk = token ->
          result := Some { self; pred; succs }
      | Ok _ | Error _ -> ());
  Transport.Udp.send t.chord_probe ~dst:t.members.(i).addr
    (Chord.Codec.encode
       (Chord.Protocol.Get_state
          { token; reply_to = Transport.Udp.local_addr t.chord_probe }));
  let deadline = wall_ms () +. timeout_ms in
  let rec go () =
    if !result <> None then !result
    else if wall_ms () >= deadline then None
    else begin
      ignore (Transport.Udp.wait t.chord_probe ~timeout:0.02);
      go ()
    end
  in
  go ()

(* The live members, each member's expected successor among them (the
   next node id clockwise), and whether every probed successor pointer
   agrees — the converged-Chord invariant, observed over the wire. *)
let converged ?(only = fun _ -> true) t =
  let live =
    List.filter
      (fun m -> m.pid <> None && only m.index)
      (Array.to_list t.members)
  in
  match live with
  | [] -> false
  | [ m ] -> (
      (* A singleton ring: the node knows no successor. *)
      match ring_state t m.index ~timeout_ms:t.cfg.ping_timeout_ms with
      | Some { succs = []; _ } -> true
      | Some { succs = s :: _; _ } -> s.Chord.Protocol.addr = m.addr
      | None -> false)
  | _ ->
      let oracle, ring = ring_of live in
      let expected_succ m =
        let i = Chord.Oracle.successor_index oracle (node_id m) in
        ring.(Chord.Oracle.successor_of oracle i)
      in
      List.for_all
        (fun m ->
          match ring_state t m.index ~timeout_ms:t.cfg.ping_timeout_ms with
          | Some { succs = s :: _; _ } ->
              s.Chord.Protocol.addr = (expected_succ m).addr
          | Some { succs = []; _ } | None -> false)
        live

let await_converged ?only t ~timeout_ms =
  let deadline = wall_ms () +. timeout_ms in
  let rec go () =
    if converged ?only t then true
    else if wall_ms () >= deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.05);
      go ()
    end
  in
  go ()

(* One supervision tick: reap exited children; respawn supervised ones
   after their backoff. *)
let supervise t =
  let now = wall_ms () in
  Array.iter
    (fun m ->
      (* delayed respawn due? *)
      (match m.respawn_at with
      | Some at when m.pid = None && m.supervised && now >= at ->
          Obs.Metrics.incr t.c_restarts;
          spawn t m.index
      | _ -> ());
      match m.pid with
      | None -> ()
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              (* Child alive.  Long-stable children earn their backoff
                 reset. *)
              if
                m.backoff_ms > restart_backoff_base_ms
                && now -. m.last_spawn >= stable_after_ms
              then m.backoff_ms <- restart_backoff_base_ms
          | _, _ ->
              (* Child exited on its own. *)
              Obs.Metrics.incr t.c_crashes;
              event t "%s exited unexpectedly" m.name;
              m.pid <- None;
              if m.supervised then begin
                m.respawn_at <- Some (now +. m.backoff_ms);
                m.backoff_ms <-
                  Float.min (m.backoff_ms *. 2.) restart_backoff_max_ms
              end
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> m.pid <- None))
    t.members

(* Graceful stop: SIGTERM, grace period for the metrics flush, SIGKILL
   stragglers.  After this every member's metrics dump (if it exited
   cleanly) is on disk. *)
let stop ?(grace_ms = 3_000.) t =
  Array.iter (fun m -> m.supervised <- false) t.members;
  Array.iter (fun m -> if m.pid <> None then signal_member t m.index Sys.sigterm) t.members;
  let deadline = wall_ms () +. grace_ms in
  let rec drain () =
    let still =
      Array.exists
        (fun m ->
          match m.pid with
          | None -> false
          | Some pid -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> true
              | _ -> m.pid <- None; false
              | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                  m.pid <- None;
                  false))
        t.members
    in
    if still && wall_ms () < deadline then begin
      ignore (Unix.select [] [] [] 0.02);
      drain ()
    end
    else still
  in
  if drain () then
    Array.iter
      (fun m ->
        match m.pid with
        | None -> ()
        | Some pid ->
            event t "%s ignored SIGTERM; killing" m.name;
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            m.pid <- None)
      t.members

(* --- the metrics dumps --- *)

let read_json_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> (
            match Json.of_string_opt line with
            | Some j -> go (j :: acc)
            | None -> go acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* A metrics file holds one or more marker-delimited snapshot
   generations (periodic flushes plus the exit dump, see i3d's
   [--metrics-flush-ms]).  Only the last generation is the daemon's
   state; summing counters across generations would count each increment
   once per flush.  Files without markers (flush disabled) are one
   generation. *)
let is_flush_marker j =
  match Json.member "marker" j with
  | Some (Json.String "flush") -> true
  | _ -> false

let last_generation lines =
  List.fold_left
    (fun acc j -> if is_flush_marker j then [] else j :: acc)
    [] lines
  |> List.rev

let metrics_dumps t =
  Array.to_list
    (Array.map
       (fun m -> (m.name, last_generation (read_json_lines m.metrics_path)))
       t.members)

(* Sum one counter across every member's dump, by metric name (labels
   beyond the name are ignored: instances differ per daemon). *)
let sum_counter t name =
  List.fold_left
    (fun acc (_, samples) ->
      List.fold_left
        (fun acc j ->
          match (Json.member "name" j, Json.member "value" j) with
          | Some (Json.String n), Some v when n = name -> (
              match Json.to_float_opt v with
              | Some f -> acc + int_of_float f
              | None -> acc)
          | _ -> acc)
        acc samples)
    0 (metrics_dumps t)

let decode_errors t = sum_counter t "wire.decode_errors"
