(* IPv4 UDP datagrams over [Unix] sockets.  A packed address fits
   simnet's [int] convention: IPv4 as a u32 in the high bits, port in
   the low 16 — 48 bits total, comfortably inside an OCaml int. *)

let pack ~ip ~port = (ip lsl 16) lor (port land 0xffff)
let port_of a = a land 0xffff
let ip_of a = (a lsr 16) land 0xffffffff

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let n x =
          let v = int_of_string x in
          if v < 0 || v > 255 then failwith "octet" else v
        in
        Some ((n a lsl 24) lor (n b lsl 16) lor (n c lsl 8) lor n d)
      with _ -> None)
  | _ -> None

let string_of_ip ip =
  Printf.sprintf "%d.%d.%d.%d"
    ((ip lsr 24) land 0xff)
    ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff)
    (ip land 0xff)

let addr_of_sockaddr = function
  | Unix.ADDR_INET (ia, port) -> (
      match ip_of_string (Unix.string_of_inet_addr ia) with
      | Some ip -> Some (pack ~ip ~port)
      | None -> None (* IPv6 peer: unrepresentable, drop *))
  | Unix.ADDR_UNIX _ -> None

let sockaddr_of_addr a =
  Unix.ADDR_INET (Unix.inet_addr_of_string (string_of_ip (ip_of a)), port_of a)

(* Both conversions above go through strings ([inet_ntop], [sprintf],
   [int_of_string]) and cost more than the syscall they wrap, so each
   socket memoizes them in a direct-mapped table per direction.  Both
   are pure functions, so a slot never goes stale: a collision just
   recomputes and overwrites, and memory is fixed whatever the peers
   send.  [memo_slots] is a power of two. *)
let memo_slots = 64
let no_addr = -1 (* packed addresses are non-negative *)
let no_sockaddr = Unix.ADDR_UNIX ""

(* Fibonacci hashing over the whole packed address, so peers that
   differ only in the IP (the same port on many hosts) or only in the
   port (many sockets on one host) both spread over the slots. *)
let tx_slot a = (a * 0x9E3779B97F4A7C1) lsr 40 land (memo_slots - 1)
let rx_slot sa = Hashtbl.hash sa land (memo_slots - 1)

type t = {
  sock : Unix.file_descr;
  local : int;
  buf : Bytes.t;
  mutable handler : src:int -> string -> unit;
  tx_key : int array;  (* packed address, [no_addr] when empty *)
  tx_val : Unix.sockaddr array;
  rx_key : Unix.sockaddr array;  (* [no_sockaddr] when empty *)
  rx_val : int array;
}

let sockaddr_to t dst =
  let i = tx_slot dst in
  if t.tx_key.(i) = dst then t.tx_val.(i)
  else begin
    let sa = sockaddr_of_addr dst in
    t.tx_key.(i) <- dst;
    t.tx_val.(i) <- sa;
    sa
  end

(* The packed source of [peer], or [no_addr] when it has none (IPv6);
   unrepresentable peers are not memoized, so they cannot evict. *)
let addr_from t peer =
  let i = rx_slot peer in
  if t.rx_key.(i) = peer then t.rx_val.(i)
  else
    match addr_of_sockaddr peer with
    | Some a ->
        t.rx_key.(i) <- peer;
        t.rx_val.(i) <- a;
        a
    | None -> no_addr

(* The receive buffer is sized from [Wire.Layout]: a maximal legal
   frame (maximal-depth stack of wide entries + maximal payload) is
   exactly one maximal datagram, so a buffer of [max_datagram] bytes
   can never truncate a frame a codec may legally produce. *)
let max_datagram = Wire.Layout.max_datagram

let create ?(host = "127.0.0.1") ?(port = 0) () =
  (* No SO_REUSEADDR: on Linux it would let this socket bind a UDP port
     another socket already holds and silently take its unicast
     traffic.  UDP has no TIME_WAIT, so a restarted daemon rebinds its
     port without it; a port collision fails loudly with EADDRINUSE. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (* Ask for socket buffers that hold several maximal datagrams: the
     kernel default drops bursts of big frames on loopback before the
     daemon ever sees them, which reads as loss the fault layer never
     injected.  Best effort: some sandboxes refuse setsockopt, and the
     kernel clamps to its limits. *)
  (try Unix.setsockopt_int sock Unix.SO_RCVBUF (8 * max_datagram)
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_int sock Unix.SO_SNDBUF (8 * max_datagram)
   with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (* Non-blocking, so a drain is one [recvfrom] per datagram plus one
     that reports EAGAIN, with no [select] in between. *)
  Unix.set_nonblock sock;
  let local =
    match addr_of_sockaddr (Unix.getsockname sock) with
    | Some a -> a
    | None -> failwith "Transport.Udp.create: non-IPv4 local address"
  in
  {
    sock;
    local;
    buf = Bytes.create max_datagram;
    handler = (fun ~src:_ _ -> ());
    tx_key = Array.make memo_slots no_addr;
    tx_val = Array.make memo_slots no_sockaddr;
    rx_key = Array.make memo_slots no_sockaddr;
    rx_val = Array.make memo_slots no_addr;
  }

(* A full send buffer (EAGAIN on the non-blocking socket) blocks until
   the socket is writable and retries, as a blocking socket would;
   EINTR retries at once. *)
let rec send_all t bytes len sa =
  match Unix.sendto_substring t.sock bytes 0 len [] sa with
  | (_ : int) -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (match Unix.select [] [ t.sock ] [] (-1.) with
      | (_ : _ * _ * _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      send_all t bytes len sa
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> send_all t bytes len sa

let send t ~dst bytes =
  let len = String.length bytes in
  if len > max_datagram then invalid_arg "Transport.Udp.send: datagram too large";
  send_all t bytes len (sockaddr_to t dst)

let set_handler t h = t.handler <- h
let local_addr t = t.local

type received = Dispatched | Skipped | Empty

(* One non-blocking [recvfrom].  EAGAIN means the queue is empty, and
   EINTR ends a drain the same way: the caller's loop decides what a
   signal means. *)
let receive t =
  match Unix.recvfrom t.sock t.buf 0 max_datagram [] with
  | len, peer ->
      let src = addr_from t peer in
      if src = no_addr then Skipped
      else begin
        t.handler ~src (Bytes.sub_string t.buf 0 len);
        Dispatched
      end
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      Empty

(* Wait up to [timeout] seconds for one datagram and dispatch it;
   returns whether one was handled.  A daemon's receive loop is
   [wait ~timeout] (block until traffic or deadline) followed by
   [poll ~now] (drain whatever else is already queued). *)
let wait t ~timeout =
  match Unix.select [ t.sock ] [] [] timeout with
  | [], _, _ -> false
  | _ -> receive t = Dispatched
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* The [Transport.S] maintenance step: dispatch every datagram already
   queued on the socket, without blocking. *)
let poll t ~now:_ =
  let rec drain () = if receive t <> Empty then drain () in
  drain ()

let close t = Unix.close t.sock
