(* The load generator: one single-threaded end host behind one UDP socket.
   It inserts the workload's triggers, sends data packets closed-loop,
   checks every delivered byte, times each packet from just before its
   sendto to the dispatch of its (last) Deliver frame, and runs the
   open-loop refresh stream. *)

let now_ns = Fleet.now_ns

(* A data packet, copy or refresh still unanswered this long has failed. *)
let timeout_ns = 200_000_000

(* Everything the seed decides.  The daemons see only frames built from
   these. *)
type inputs = {
  w : Workload.t;
  ids : Id.t array;  (** resident trigger identifiers *)
  residual : Id.t array;
      (** multicast: the one-entry residual stack of each copy *)
  order : int array;  (** which identifier each data packet targets *)
  filler : string;  (** payload bytes after the sequence number *)
}

let inputs ~seed (w : Workload.t) =
  let rng = Rng.of_int seed in
  let ids = Array.init w.resident (fun _ -> Id.random rng) in
  let residual =
    if w.fanout = 1 then [||] else Array.init w.fanout (fun _ -> Id.random rng)
  in
  let order = Array.init 65536 (fun _ -> Rng.int rng w.resident) in
  let filler = Bytes.to_string (Rng.bytes rng (w.payload - 8)) in
  { w; ids; residual; order; filler }

let payload inp seq =
  let b = Bytes.create inp.w.payload in
  Bytes.set_int64_be b 0 (Int64.of_int seq);
  Bytes.blit_string inp.filler 0 b 8 (inp.w.payload - 8);
  Bytes.unsafe_to_string b

let target inp seq = inp.order.(seq land (Array.length inp.order - 1))

let data_frame inp seq =
  I3.Codec.encode
    (I3.Message.Data
       (I3.Packet.make
          ~stack:[ I3.Packet.Sid inp.ids.(target inp seq) ]
          ~payload:(payload inp seq) ()))

(* Trigger [i] is copy [i mod fanout] of identifier [i / fanout]: it
   delivers to [host] and, for a multicast group, leaves that copy's
   residual identifier on the delivered stack. *)
let trigger inp ~host i =
  let f = inp.w.fanout in
  let rest = if f = 1 then [] else [ I3.Packet.Sid inp.residual.(i mod f) ] in
  I3.Trigger.make ~id:inp.ids.(i / f) ~stack:(I3.Packet.Saddr host :: rest)
    ~owner:host

let trigger_key (tr : I3.Trigger.t) =
  match tr.stack with
  | _ :: I3.Packet.Sid r :: _ -> Id.to_raw_string tr.id ^ Id.to_raw_string r
  | _ -> Id.to_raw_string tr.id

(* Send-side ring of in-flight data packets, indexed by sequence number. *)
let slots = 1 lsl 16

(* What a run keeps across the fleets it sets up. *)
type run = {
  speed : Speed.t;
  ref_ack_us : Samples.t;  (** refresh acknowledgement, from its due time *)
  ref_late_us : Samples.t;  (** how late each refresh left *)
  encode_ns : Samples.t;  (** spans of the traced latency phase *)
  send_ns : Samples.t;
  decode_ns : Samples.t;
}

let new_run () =
  {
    speed = Speed.create ();
    ref_ack_us = Samples.create ();
    ref_late_us = Samples.create ();
    encode_ns = Samples.create ();
    send_ns = Samples.create ();
    decode_ns = Samples.create ();
  }

type t = {
  inp : inputs;
  run : run;
  udp : Transport.Udp.t;
  triggers : I3.Trigger.t array;
  key_index : (string, int) Hashtbl.t;
  owner : int array;  (** per identifier: the daemon responsible for it *)
  entry : int array;  (** per identifier: the daemon the sender sends to *)
  expect : Bytes.t;
  full_mask : int;
  slot_seq : int array;  (** -1: free *)
  slot_sent : int array;
  slot_mask : int array;  (** copies received *)
  mutable next_seq : int;
  mutable oldest : int;
  mutable inflight : int;
  mutable on_complete : int -> unit;  (** one-way ns of a completed packet *)
  mutable delivers : int;  (** valid Deliver frames *)
  mutable data_sent : int;
  mutable timeouts : int;
  mutable mismatches : int;  (** wrong bytes, duplicates, stray frames *)
  (* trigger inserts and the refresh stream *)
  pending : int array;  (** per trigger: ns its insert was due, -1: none *)
  mutable pending_n : int;
  mutable acked : int;
  mutable refreshing : bool;
  mutable ref_t0 : int;
  mutable ref_k : int;
  ref_interval_ns : float;
  mutable refreshes_sent : int;
  mutable refresh_failed : int;
  mutable tracing : bool;
}

let failures t = t.timeouts + t.mismatches + t.refresh_failed
let attempted t = t.data_sent + t.refreshes_sent

let reset_counts t =
  t.delivers <- 0;
  t.data_sent <- 0;
  t.timeouts <- 0;
  t.mismatches <- 0;
  t.refreshes_sent <- 0;
  t.refresh_failed <- 0

let copy_index t (stack : I3.Packet.stack) =
  match stack with
  | [] when t.inp.w.fanout = 1 -> 0
  | [ I3.Packet.Sid r ] ->
      let rec find i =
        if i >= Array.length t.inp.residual then -1
        else if Id.equal t.inp.residual.(i) r then i
        else find (i + 1)
      in
      find 0
  | _ -> -1

let on_deliver t ~recv stack payload =
  let copy = copy_index t stack in
  if copy < 0 || String.length payload <> t.inp.w.payload then
    t.mismatches <- t.mismatches + 1
  else begin
    let seq = Int64.to_int (String.get_int64_be payload 0) in
    Bytes.set_int64_be t.expect 0 (Int64.of_int seq);
    let s = seq land (slots - 1) in
    if
      (not (String.equal payload (Bytes.unsafe_to_string t.expect)))
      || t.slot_seq.(s) <> seq
      || t.slot_mask.(s) land (1 lsl copy) <> 0
    then t.mismatches <- t.mismatches + 1
    else begin
      t.delivers <- t.delivers + 1;
      t.slot_mask.(s) <- t.slot_mask.(s) lor (1 lsl copy);
      if t.slot_mask.(s) = t.full_mask then begin
        t.slot_seq.(s) <- -1;
        t.inflight <- t.inflight - 1;
        t.on_complete (recv - t.slot_sent.(s))
      end
    end
  end

let on_ack t ~recv tr =
  match Hashtbl.find_opt t.key_index (trigger_key tr) with
  | Some i when t.pending.(i) >= 0 ->
      if t.refreshing then
        Samples.add t.run.ref_ack_us (float_of_int (recv - t.pending.(i)) /. 1e3);
      t.pending.(i) <- -1;
      t.pending_n <- t.pending_n - 1;
      t.acked <- t.acked + 1
  | _ -> t.mismatches <- t.mismatches + 1

let on_datagram t ~src:_ bytes =
  let recv = now_ns () in
  match I3.Codec.decode bytes with
  | Ok (I3.Message.Deliver { stack; payload; _ }) ->
      if t.tracing then Samples.add t.run.decode_ns (float_of_int (now_ns () - recv));
      on_deliver t ~recv stack payload
  | Ok (I3.Message.Insert_ack { trigger; _ }) -> on_ack t ~recv trigger
  | Ok _ | Error _ -> t.mismatches <- t.mismatches + 1

(* The host socket and the owner/entry daemon of every identifier.  With
   two members, the entry for a two-hop workload is the one that does
   not own the identifier. *)
let create run inp cluster =
  let udp = Transport.Udp.create () in
  let host = Transport.Udp.local_addr udp in
  let n = inp.w.resident * inp.w.fanout in
  let triggers = Array.init n (trigger inp ~host) in
  let key_index = Hashtbl.create n in
  Array.iteri (fun i tr -> Hashtbl.replace key_index (trigger_key tr) i) triggers;
  let addr i = (Harness.Cluster.member cluster i).addr in
  let owner_i = Array.map (Harness.Cluster.owner_index cluster) inp.ids in
  let t =
    {
      inp;
      run;
      udp;
      triggers;
      key_index;
      owner = Array.map addr owner_i;
      entry =
        Array.map (fun o -> addr (if inp.w.hops = 1 then o else 1 - o)) owner_i;
      expect = Bytes.of_string (payload inp 0);
      full_mask = (1 lsl inp.w.fanout) - 1;
      slot_seq = Array.make slots (-1);
      slot_sent = Array.make slots 0;
      slot_mask = Array.make slots 0;
      next_seq = 0;
      oldest = 0;
      inflight = 0;
      on_complete = ignore;
      delivers = 0;
      data_sent = 0;
      timeouts = 0;
      mismatches = 0;
      pending = Array.make n (-1);
      pending_n = 0;
      acked = 0;
      refreshing = false;
      ref_t0 = 0;
      ref_k = 0;
      ref_interval_ns = 1e9 /. Workload.refresh_per_s inp.w;
      refreshes_sent = 0;
      refresh_failed = 0;
      tracing = false;
    }
  in
  Transport.Udp.set_handler udp (on_datagram t);
  t

let close t = Transport.Udp.close t.udp

(* --- the loop --- *)

let send_insert_frame t i =
  Transport.Udp.send t.udp
    ~dst:t.owner.(i / t.inp.w.fanout)
    (I3.Codec.encode (I3.Message.Insert { trigger = t.triggers.(i); token = None }))

(* A refresh still unanswered when its trigger is due again has failed. *)
let send_insert t i ~due =
  if t.pending.(i) >= 0 then t.refresh_failed <- t.refresh_failed + 1
  else t.pending_n <- t.pending_n + 1;
  t.pending.(i) <- due;
  send_insert_frame t i

let refresh_due t k = t.ref_t0 + int_of_float (float_of_int k *. t.ref_interval_ns)

(* Open loop: every refresh whose time has come leaves now, however late;
   its ack latency is timed from when it was due, so a stall shows. *)
let service_refreshes t now =
  if t.refreshing then
    while refresh_due t t.ref_k <= now do
      let due = refresh_due t t.ref_k in
      send_insert t (t.ref_k mod Array.length t.triggers) ~due;
      Samples.add t.run.ref_late_us (float_of_int (now - due) /. 1e3);
      t.refreshes_sent <- t.refreshes_sent + 1;
      t.ref_k <- t.ref_k + 1
    done

let expire t now =
  let continue = ref true in
  while !continue && t.oldest < t.next_seq do
    let s = t.oldest land (slots - 1) in
    if t.slot_seq.(s) <> t.oldest then t.oldest <- t.oldest + 1
    else if now - t.slot_sent.(s) > timeout_ns then begin
      t.slot_seq.(s) <- -1;
      t.inflight <- t.inflight - 1;
      t.timeouts <- t.timeouts + 1;
      t.oldest <- t.oldest + 1
    end
    else continue := false
  done

let send_data t =
  let seq = t.next_seq in
  let s = seq land (slots - 1) in
  if t.slot_seq.(s) >= 0 then begin
    (* Only reachable with 65536 packets in flight: fail the old one. *)
    t.timeouts <- t.timeouts + 1;
    t.inflight <- t.inflight - 1
  end;
  let t0 = if t.tracing then now_ns () else 0 in
  let frame = data_frame t.inp seq in
  let sent = now_ns () in
  t.slot_seq.(s) <- seq;
  t.slot_sent.(s) <- sent;
  t.slot_mask.(s) <- 0;
  t.next_seq <- seq + 1;
  t.inflight <- t.inflight + 1;
  t.data_sent <- t.data_sent + 1;
  Transport.Udp.send t.udp ~dst:t.entry.(target t.inp seq) frame;
  if t.tracing then begin
    Samples.add t.run.encode_ns (float_of_int (sent - t0));
    Samples.add t.run.send_ns (float_of_int (now_ns () - sent))
  end

(* Block for the next datagram, but no longer than until the next
   refresh is due or the oldest packet times out; then drain the
   socket. *)
let pump t =
  let now = now_ns () in
  let until = ref (now + timeout_ns) in
  if t.refreshing then until := min !until (refresh_due t t.ref_k);
  if t.inflight > 0 then
    until := min !until (t.slot_sent.(t.oldest land (slots - 1)) + timeout_ns);
  let timeout = Float.max 0. (float_of_int (!until - now) /. 1e9) in
  (try ignore (Transport.Udp.wait t.udp ~timeout)
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  Transport.Udp.poll t.udp ~now:0.

(* Closed loop: keep [window] data packets in flight until [packets] have
   been sent or [deadline] (ns) has passed, then wait for the stragglers.
   [on_loop] sees the clock once per turn of the loop. *)
let run_data ?(on_loop = ignore) t ~window ~packets ~deadline ~on_complete =
  t.on_complete <- on_complete;
  let sent = ref 0 in
  let rec loop () =
    let now = now_ns () in
    on_loop now;
    expire t now;
    service_refreshes t now;
    let more () = !sent < packets && now < deadline in
    while t.inflight < window && more () do
      send_data t;
      incr sent
    done;
    if t.inflight > 0 || more () then begin
      pump t;
      loop ()
    end
  in
  loop ()

(* --- setup --- *)

(* Insert every trigger at its owner with a window of unanswered
   inserts; anything unacked for [timeout_ns] is sent again. *)
let preload t =
  let n = Array.length t.triggers in
  let next = ref 0 and last_progress = ref (now_ns ()) and acked = ref t.acked in
  let deadline = now_ns () + 30_000_000_000 in
  while t.pending_n > 0 || !next < n do
    while t.pending_n < 256 && !next < n do
      send_insert t !next ~due:(now_ns ());
      incr next
    done;
    pump t;
    let now = now_ns () in
    if t.acked > !acked then begin
      acked := t.acked;
      last_progress := now
    end
    else if now - !last_progress > timeout_ns then begin
      if now > deadline then failwith "triggers were not acknowledged in 30 s";
      Array.iteri (fun i due -> if due >= 0 then send_insert_frame t i) t.pending;
      last_progress := now
    end
  done;
  (* Acks of inserts sent twice arrive twice. *)
  t.mismatches <- 0

(* One data packet along the workload's path, delivered in full: the end
   of setup. *)
let probe_path t =
  let rec go k =
    let timeouts = t.timeouts in
    run_data t ~window:1 ~packets:1 ~deadline:max_int ~on_complete:ignore;
    if t.timeouts > timeouts || t.mismatches > 0 then
      if k < 5 then go (k + 1) else failwith "the probe packet was not delivered"
  in
  go 1;
  reset_counts t

(* --- measured phases --- *)

let start_refresh t =
  t.refreshing <- true;
  t.ref_t0 <- now_ns ();
  t.ref_k <- 0

(* Stop the refresh stream and give the last refreshes their full
   timeout to be acknowledged; the rest have failed. *)
let stop_refresh t =
  if t.refreshing then begin
    t.refreshing <- false;
    let deadline = now_ns () + timeout_ns in
    while t.pending_n > 0 && now_ns () < deadline do
      pump t
    done;
    t.refresh_failed <- t.refresh_failed + t.pending_n;
    Array.fill t.pending 0 (Array.length t.pending) (-1);
    t.pending_n <- 0
  end

(* One data packet outstanding.  The one-way time (us) of every packet,
   and beside it the slowest speed probe from before its send until after
   its delivery. *)
let latency t ~packets =
  let lat = Samples.create () and worst = Samples.create () in
  let completed = ref None and worst_so_far = ref 0. in
  let on_loop _ =
    let p = Speed.probe t.run.speed in
    match !completed with
    | None -> worst_so_far := Float.max !worst_so_far p
    | Some us ->
        Samples.add lat us;
        Samples.add worst (Float.max !worst_so_far p);
        completed := None;
        worst_so_far := p
  in
  run_data ~on_loop t ~window:1 ~packets ~deadline:max_int ~on_complete:(fun ns ->
      completed := Some (float_of_int ns /. 1e3));
  on_loop 0;
  (lat, worst)

type goodput = {
  turn_ns : Samples.t;  (** length of each turn of the loop *)
  turn_d : Samples.t;  (** Deliver frames it received *)
  worst : Samples.t;  (** the slower speed probe of its two ends *)
  delivered : int;  (** every Deliver frame of the phase *)
}

(* [Workload.window] data packets outstanding for [seconds], probing the
   speed at every turn of the loop. *)
let goodput t ~seconds =
  let start = now_ns () and d0 = t.delivers in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let g =
    {
      turn_ns = Samples.create ();
      turn_d = Samples.create ();
      worst = Samples.create ();
      delivered = 0;
    }
  in
  let prev = ref (start, d0, Speed.probe t.run.speed) in
  let on_loop now =
    if now <= deadline then begin
      let at, d, p0 = !prev in
      let p = Speed.probe t.run.speed in
      Samples.add g.turn_ns (float_of_int (now - at));
      Samples.add g.turn_d (float_of_int (t.delivers - d));
      Samples.add g.worst (Float.max p0 p);
      prev := (now, t.delivers, p)
    end
  in
  run_data ~on_loop t ~window:Workload.window ~packets:max_int ~deadline
    ~on_complete:ignore;
  { g with delivered = t.delivers - d0 }

(* Deliver frames per second over the turns, of every goodput phase in
   [gs], that began and ended at full speed, or over the least disturbed
   tenth of the turns when fewer did. *)
let goodput_rate gs ~limit =
  let cat f = Samples.concat (List.map f gs) in
  let worst = cat (fun g -> g.worst) in
  let fast s = Samples.sum (Speed.filter ~limit ~min_count:(Samples.length worst / 10) s worst) in
  fast (cat (fun g -> g.turn_d)) /. fast (cat (fun g -> g.turn_ns)) *. 1e9
