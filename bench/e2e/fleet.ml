(* The benchmark's environment: the CPU everything is pinned to, the forked
   two-daemon i3d ring, the processes' CPU clocks, and the daemons' own
   counters read over the telemetry plane. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let lines s = String.split_on_char '\n' s

(* --- CPU pinning --- *)

(* The CPUs this process may run on, from the kernel's "0-3,6" list. *)
let allowed_cpus () =
  let parse list =
    String.split_on_char ',' (String.trim list)
    |> List.concat_map (fun range ->
           match String.split_on_char '-' range with
           | [ a ] -> [ int_of_string a ]
           | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
           | _ -> [])
  in
  match read_file "/proc/self/status" with
  | None -> []
  | Some s -> (
      match
        List.find_map
          (fun l ->
            match String.split_on_char ':' l with
            | [ "Cpus_allowed_list"; v ] -> Some v
            | _ -> None)
          (lines s)
      with
      | Some v -> ( try parse v with Failure _ -> [])
      | None -> [])

type pin = Pinned of int | Unpinned of string

(* Pin this process (every thread) to the last CPU it may use; daemons it
   forks afterwards inherit the mask.  One CPU makes the run-to-run
   numbers repeat: unpinned, where the scheduler places the 3-4 processes
   moves p50 latency by 2x (README.md, "Why one CPU"). *)
let pin () =
  match List.rev (allowed_cpus ()) with
  | [] -> Unpinned "cannot read Cpus_allowed_list from /proc/self/status"
  | cpu :: _ -> (
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let argv =
        [| "taskset"; "-a"; "-p"; "-c"; string_of_int cpu;
           string_of_int (Unix.getpid ()) |]
      in
      let status =
        match Unix.create_process "taskset" argv Unix.stdin devnull devnull with
        | pid -> Some (snd (Unix.waitpid [] pid))
        | exception Unix.Unix_error _ -> None
      in
      Unix.close devnull;
      match status with
      | None -> Unpinned "taskset is not available"
      | Some (Unix.WEXITED 0) when allowed_cpus () = [ cpu ] -> Pinned cpu
      | Some _ -> Unpinned "taskset could not set the CPU affinity")

(* --- CPU clocks --- *)

(* CPU time a process has used, in ns, from /proc/<pid>/schedstat; 0
   where the kernel does not keep it. *)
let cpu_ns pid =
  match read_file (Printf.sprintf "/proc/%s/schedstat" pid) with
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | ns :: _ -> Option.value ~default:0 (int_of_string_opt ns)
      | [] -> 0)
  | None -> 0

(* (busy, total) jiffies of one CPU from /proc/stat; busy excludes idle
   and iowait. *)
let cpu_jiffies cpu =
  let tag = Printf.sprintf "cpu%d" cpu in
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
      match
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | t :: fields when t = tag ->
                Some (List.filter_map int_of_string_opt fields)
            | _ -> None)
          (lines s)
      with
      | Some (user :: nice :: sys :: idle :: iowait :: rest) ->
          let busy = user + nice + sys + List.fold_left ( + ) 0 rest in
          (busy, busy + idle + iowait)
      | _ -> (0, 0))

(* --- the ring --- *)

(* i3d's own timer defaults; no periodic metrics files while measuring,
   and a ping timeout short enough not to quantise setup time. *)
let config =
  {
    Harness.Cluster.default_config with
    stabilize_ms = 2_000.;
    rpc_timeout_ms = 500.;
    metrics_flush_ms = 0.;
    ping_timeout_ms = 20.;
  }

(* The smoke test's daemons stabilize every 200 ms, so waiting for their
   predecessor pointers costs little. *)
let smoke_config = { config with stabilize_ms = 200.; rpc_timeout_ms = 100. }

let daemon_flags (config : Harness.Cluster.config) =
  Printf.sprintf "--stabilize-ms %g --rpc-timeout-ms %g (no --metrics-flush-ms)"
    config.stabilize_ms config.rpc_timeout_ms

(* Share of the identifier circle member 1 owns: (node0, node1]. *)
let share_of_member1 c =
  let open Harness.Cluster in
  let d =
    Id.distance_cw (node_id (member c 0)) (node_id (member c 1)) |> Id.prefix64
  in
  let f = Int64.to_float d in
  (if f < 0. then f +. 18446744073709551616. else f) /. 18446744073709551616.

let await c what ready =
  let deadline = Unix.gettimeofday () +. 10. in
  while not (ready ()) do
    if Unix.gettimeofday () > deadline then begin
      Harness.Cluster.stop c;
      failwith (what ^ " within 10 s")
    end;
    Unix.sleepf 0.001
  done

(* Fork a two-daemon ring and wait until both daemons answer and their
   successor pointers have converged over the wire.  Ports are random, so
   the owners' shares of the circle are too; a fleet whose split is far
   from even is discarded before it is spawned, so that about half of a
   large trigger set lands on each member. *)
let spawn ~config ~i3d ~dir =
  let rec balanced attempt =
    let c = Harness.Cluster.create ~config ~dir ~i3d ~n:2 () in
    let share = share_of_member1 c in
    if (share > 0.35 && share < 0.65) || attempt >= 20 then c
    else balanced (attempt + 1)
  in
  let c = balanced 0 in
  let members = Harness.Cluster.members c in
  List.iter (fun (mb : Harness.Cluster.member) -> Harness.Cluster.spawn c mb.index) members;
  (* A Ping that reaches a daemon before it has bound its port is lost;
     asking every millisecond keeps that from rounding set-up time up to
     a ping timeout. *)
  await c "the daemons did not answer a Ping" (fun () ->
      List.for_all
        (fun (mb : Harness.Cluster.member) ->
          Harness.Cluster.ping c mb.index ~timeout_ms:1. <> None)
        members);
  await c "the successor pointers did not converge" (fun () ->
      Harness.Cluster.converged c);
  c

(* Wait until each member's predecessor is the other.  The daemon that
   starts first probes a port nobody has bound yet, so the other learns
   its predecessor only at the first one's first stabilize round, a
   random phase in [0, stabilize_ms).  Until then that member owns no
   identifier and forwards traffic for its arc around the ring.  This is
   idle waiting on a timer, not work, and is left out of setup_s. *)
let await_predecessors c =
  let addrs = Harness.Cluster.addrs c in
  await c "the predecessor pointers did not converge" (fun () ->
      List.for_all
        (fun (mb : Harness.Cluster.member) ->
          match Harness.Cluster.ring_state c mb.index ~timeout_ms:config.ping_timeout_ms with
          | Some { pred = Some p; _ } -> p.addr <> mb.addr && List.mem p.addr addrs
          | _ -> false)
        (Harness.Cluster.members c))

(* --- daemon counters over the telemetry plane --- *)

type counters = {
  frames : float;  (** datagrams received ([driver.frames]) *)
  sends : float;  (** datagrams sent ([driver.sends]) *)
  steps : float;  (** frame and batch engine steps ([driver.step_ms] count) *)
  step_ms : float;  (** their summed duration *)
  drops : float;  (** [i3.drops], every cause *)
  decode_errors : float;  (** [wire.decode_errors] *)
}

let zero =
  { frames = 0.; sends = 0.; steps = 0.; step_ms = 0.; drops = 0.; decode_errors = 0. }

let map2 f a b =
  {
    frames = f a.frames b.frames;
    sends = f a.sends b.sends;
    steps = f a.steps b.steps;
    step_ms = f a.step_ms b.step_ms;
    drops = f a.drops b.drops;
    decode_errors = f a.decode_errors b.decode_errors;
  }

let add_sample acc (s : Obs.Metrics.sample) =
  let event = List.assoc_opt "event" s.labels in
  match (s.name, s.value) with
  | "driver.frames", Counter v -> { acc with frames = acc.frames +. float v }
  | "driver.sends", Counter v -> { acc with sends = acc.sends +. float v }
  | "driver.step_ms", Histogram { count; sum; _ }
    when event = Some "frame" || event = Some "batch" ->
      { acc with steps = acc.steps +. float count; step_ms = acc.step_ms +. sum }
  | "i3.drops", Counter v -> { acc with drops = acc.drops +. float v }
  | "wire.decode_errors", Counter v ->
      { acc with decode_errors = acc.decode_errors +. float v }
  | _ -> acc

(* Ask every daemon for the counters above with [Stats_request] frames
   from a socket of their own, so the replies never reach the load
   generator's socket. *)
let scrape c =
  let udp = Transport.Udp.create () in
  let nonce = ref 0 in
  let ask dst prefix =
    incr nonce;
    let want = !nonce in
    let got = ref None in
    Transport.Udp.set_handler udp (fun ~src:_ bytes ->
        match I3.Codec.decode bytes with
        | Ok (I3.Message.Stats_response { nonce; samples; _ }) when nonce = want ->
            got := Some samples
        | _ -> ());
    let rec attempt k =
      Transport.Udp.send udp ~dst
        (I3.Codec.encode
           (I3.Message.Stats_request { nonce = want; prefix; drain = false }));
      let deadline = Unix.gettimeofday () +. 0.5 in
      while !got = None && Unix.gettimeofday () < deadline do
        ignore (Transport.Udp.wait udp ~timeout:0.05)
      done;
      match !got with
      | Some samples -> samples
      | None when k < 3 -> attempt (k + 1)
      | None -> failwith "a daemon did not answer a Stats_request"
    in
    attempt 1
  in
  let total =
    List.fold_left
      (fun acc dst ->
        List.fold_left
          (fun acc prefix -> List.fold_left add_sample acc (ask dst prefix))
          acc
          [ "driver."; "i3.drops"; "wire.decode_errors" ])
      zero (Harness.Cluster.addrs c)
  in
  Transport.Udp.close udp;
  total
