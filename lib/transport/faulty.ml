(* A fault-injecting decorator over any byte transport.

   Sits at the send boundary: every datagram a component hands to
   [send] gets its fate from the simulator's own seeded interpreter
   ([Faults.fate]) — partitions, one-way gray links, Gilbert-Elliott
   burst loss, seeded loss, duplication and extra delay — before
   (maybe, eventually) reaching the real [send] of the wrapped
   transport.  Receive is untouched: a dropped reply is just the
   peer's own faulty send, so wrapping each endpoint's sender is enough
   to model a lossy path end to end.

   Delay cannot block a synchronous [send], so delayed datagrams park in
   a due-time heap and leave on the next [flush] — the poll loop of
   whoever owns the socket calls it, which is exactly how a userspace
   qdisc behaves.  All randomness draws from one explicit [Rng.t], so a
   chaos scenario over real sockets replays from its seed as faithfully
   as the send *decisions* allow (the network underneath adds its own
   nondeterminism; on loopback, effectively none). *)

type lower = { send : dst:int -> string -> unit; local_addr : int }

let of_udp_lower u =
  {
    send = (fun ~dst bytes -> Udp.send u ~dst bytes);
    local_addr = Udp.local_addr u;
  }

type delayed = { due : float; dst : int; bytes : string; seq : int }

type t = {
  lower : lower;
  faults : Faults.t;
  clock : unit -> float;  (* ms *)
  pending : delayed Heap.t;
  mutable seq : int;  (* FIFO tie-break for equal due times *)
  c_sent : Obs.Metrics.counter;
  c_dropped : Faults.cause -> Obs.Metrics.counter;
  c_duplicated : Obs.Metrics.counter;
  c_delayed : Obs.Metrics.counter;
}

let wall_ms () = Unix.gettimeofday () *. 1000.

let create ?(metrics = Obs.Metrics.default) ?(clock = wall_ms) ~rng lower =
  let instance = ("instance", "faulty" ^ string_of_int lower.local_addr) in
  let counter ?(labels = []) name =
    Obs.Metrics.counter metrics ~labels:(instance :: labels) name
  in
  let dropped cause =
    counter ~labels:[ ("cause", Faults.cause_name cause) ] "faulty.dropped"
  in
  let partition = dropped `Partition and gray = dropped `Gray in
  let burst = dropped `Burst and loss = dropped `Loss in
  {
    lower;
    faults = Faults.create rng;
    clock;
    pending =
      Heap.create ~cmp:(fun a b ->
          match compare a.due b.due with 0 -> compare a.seq b.seq | c -> c);
    seq = 0;
    c_sent = counter "faulty.sent";
    c_dropped =
      (function
      | `Partition -> partition | `Gray -> gray | `Burst -> burst | `Loss -> loss);
    c_duplicated = counter "faulty.duplicated";
    c_delayed = counter "faulty.delayed";
  }

let of_udp ?metrics ?clock ~rng u = create ?metrics ?clock ~rng (of_udp_lower u)

let release t ~dst bytes = t.lower.send ~dst bytes

let emit t ~dst bytes extra =
  if extra <= 0. then release t ~dst bytes
  else begin
    Obs.Metrics.incr t.c_delayed;
    t.seq <- t.seq + 1;
    Heap.add t.pending { due = t.clock () +. extra; dst; bytes; seq = t.seq }
  end

(* The wire's site is the packed address, so a schedule written against
   addresses cuts the same links it would in the simulator. *)
let send t ~dst bytes =
  Obs.Metrics.incr t.c_sent;
  match Faults.fate t.faults ~src_site:t.lower.local_addr ~dst_site:dst with
  | Faults.Drop cause -> Obs.Metrics.incr (t.c_dropped cause)
  | Faults.Once extra -> emit t ~dst bytes extra
  | Faults.Twice (extra, copy) ->
      Obs.Metrics.incr t.c_duplicated;
      emit t ~dst bytes extra;
      emit t ~dst bytes copy

let flush t =
  let now = t.clock () in
  let rec go n =
    match Heap.peek t.pending with
    | Some d when d.due <= now ->
        ignore (Heap.pop t.pending);
        release t ~dst:d.dst d.bytes;
        go (n + 1)
    | _ -> n
  in
  go 0

let pending t = Heap.size t.pending

let apply t event = Faults.apply t.faults event
