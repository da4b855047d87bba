(* Frame layout (payload bytes):
   'D' | seq (8, big-endian) | ack trigger id (32) | message bytes
   'A' | cumulative ack (8): "everything below this seq arrived"           *)

let u64_to_string v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff))

let u64_of_string s off =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc :=
      Int64.logor (Int64.shift_left !acc 8)
        (Int64.of_int (Char.code s.[off + i]))
  done;
  !acc

(* --- receiver --- *)

type receiver = {
  r_host : Transport.Host.t;
  r_id : Id.t;
  mutable next_expected : int64;
  pending : (int64, string) Hashtbl.t; (* out-of-order buffer *)
  mutable delivered : int;
  on_data : string -> unit;
}

let receiver host rng ~on_data =
  let r =
    {
      r_host = host;
      r_id = Id.random rng;
      next_expected = 0L;
      pending = Hashtbl.create 16;
      delivered = 0;
      on_data;
    }
  in
  let deliver_ready () =
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt r.pending r.next_expected with
      | Some body ->
          Hashtbl.remove r.pending r.next_expected;
          r.next_expected <- Int64.add r.next_expected 1L;
          r.delivered <- r.delivered + 1;
          r.on_data body
      | None -> continue := false
    done
  in
  Transport.Host.on_receive host (fun ~stack:_ ~payload ->
      if String.length payload >= 1 + 8 + Id.byte_length && payload.[0] = 'D'
      then begin
        let seq = u64_of_string payload 1 in
        let ack_id =
          Id.of_raw_string (String.sub payload 9 Id.byte_length)
        in
        let body =
          String.sub payload
            (9 + Id.byte_length)
            (String.length payload - 9 - Id.byte_length)
        in
        if Int64.compare seq r.next_expected >= 0 then
          Hashtbl.replace r.pending seq body;
        deliver_ready ();
        (* Cumulative ack — also for duplicates, so the sender's timer
           stops even when the original ack was lost. *)
        Transport.Host.send host ack_id ("A" ^ u64_to_string r.next_expected)
      end);
  Transport.Host.insert_trigger host r.r_id;
  r

let receiver_id r = r.r_id
let received_count r = r.delivered

(* --- sender --- *)

type sender = {
  s_host : Transport.Host.t;
  dest : Id.t;
  ack_id : Id.t;
  window : int;
  rto_ms : float;
  engine : Engine.t;
  outstanding : (int64, string) Hashtbl.t; (* seq -> body, unacked *)
  mutable backlog : string list; (* reversed queue awaiting a slot *)
  mutable next_seq : int64;
  mutable acked_below : int64;
  mutable retransmissions : int;
  mutable timer_armed : bool;
}

let transmit s seq body =
  Transport.Host.send s.s_host s.dest
    ("D" ^ u64_to_string seq ^ Id.to_raw_string s.ack_id ^ body)

let rec arm_timer s =
  if not s.timer_armed then begin
    s.timer_armed <- true;
    Engine.schedule s.engine ~delay:s.rto_ms (fun () ->
        s.timer_armed <- false;
        if Hashtbl.length s.outstanding > 0 then begin
          Hashtbl.iter
            (fun seq body ->
              s.retransmissions <- s.retransmissions + 1;
              transmit s seq body)
            s.outstanding;
          arm_timer s
        end)
  end

let rec fill_window s =
  if Hashtbl.length s.outstanding < s.window then
    match s.backlog with
    | [] -> ()
    | body :: rest ->
        s.backlog <- rest;
        let seq = s.next_seq in
        s.next_seq <- Int64.add s.next_seq 1L;
        Hashtbl.replace s.outstanding seq body;
        transmit s seq body;
        arm_timer s;
        fill_window s

let sender ?(window = 16) ?(rto_ms = 2_000.) host rng ~dest =
  if window < 1 then invalid_arg "Reliable.sender: window < 1";
  (* The host's engine is reachable through insert timers; we need it for
     the RTO, so thread it via the host API. *)
  let s =
    {
      s_host = host;
      dest;
      ack_id = Id.random rng;
      window;
      rto_ms;
      engine = Transport.Host.engine host;
      outstanding = Hashtbl.create 32;
      backlog = [];
      next_seq = 0L;
      acked_below = 0L;
      retransmissions = 0;
      timer_armed = false;
    }
  in
  Transport.Host.on_receive host (fun ~stack:_ ~payload ->
      if String.length payload >= 9 && payload.[0] = 'A' then begin
        let cumulative = u64_of_string payload 1 in
        if Int64.compare cumulative s.acked_below > 0 then begin
          s.acked_below <- cumulative;
          Hashtbl.iter
            (fun seq _ -> if Int64.compare seq cumulative < 0 then Hashtbl.remove s.outstanding seq)
            (Hashtbl.copy s.outstanding);
          fill_window s
        end
      end);
  Transport.Host.insert_trigger host s.ack_id;
  s

let send s body =
  s.backlog <- s.backlog @ [ body ];
  fill_window s

let in_flight s = Hashtbl.length s.outstanding
let queued s = List.length s.backlog
let retransmissions s = s.retransmissions
