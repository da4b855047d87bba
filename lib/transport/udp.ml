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

(* The receive buffer is sized from [Wire.Layout]: a maximal legal
   frame (maximal-depth stack of wide entries + maximal payload) is
   exactly one maximal datagram, so a slot of [max_datagram] bytes can
   never truncate a frame a codec may legally produce. *)
let max_datagram = Wire.Layout.max_datagram

(* Datagrams per [recvmmsg]: the slab holds [slots] slots of
   [max_datagram] bytes, about 1 MiB of address space per socket, of
   which only the pages datagrams land on become resident. *)
let slots = 16

(* The slab lives outside the OCaml heap (see udp_stubs.c), so the GC
   neither scans nor moves it and [create] allocates nothing large on
   the heap. *)
type slab

external slab_create : int -> int -> slab = "i3_udp_slab_create"

(* [recvmmsg t.sock slab lens srcs max] receives up to [max] datagrams,
   datagram [i] into slot [i], and writes its length to [lens.(i)] and
   its packed source to [srcs.(i)] ([no_addr] when not IPv4).  It
   returns how many arrived, or 0 when none is queued or a signal came;
   any other failure raises [Unix.Unix_error]. *)
external recvmmsg :
  Unix.file_descr -> slab -> int array -> int array -> int -> int
  = "i3_udp_recvmmsg"

(* [slab_sub slab i len]: slot [i]'s first [len] bytes as a fresh
   string. *)
external slab_sub : slab -> int -> int -> string = "i3_udp_slab_sub"

let no_addr = -1 (* packed addresses are non-negative *)

(* Datagrams per [sendmmsg]: the stub's batch cap (I3_UDP_BATCH). *)
let send_batch = 64

type t = {
  sock : Unix.file_descr;
  local : int;
  bufs : string array;  (* the batch being sent; "" when idle *)
  dsts : int array;
  slab : slab;
  lens : int array;
  srcs : int array;
  batch : string array;  (* the batch being dispatched *)
  mutable dispatching : bool;
  mutable handler : src:int -> string -> unit;
  refused : Obs.Metrics.counter;
}

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
  (* Non-blocking, so a drain is one [recvmmsg] per [slots] datagrams,
     with no [select] in between, and never waits. *)
  Unix.set_nonblock sock;
  let local =
    match addr_of_sockaddr (Unix.getsockname sock) with
    | Some a -> a
    | None -> failwith "Transport.Udp.create: non-IPv4 local address"
  in
  let instance =
    Printf.sprintf "%s:%d" (string_of_ip (ip_of local)) (port_of local)
  in
  {
    sock;
    local;
    bufs = Array.make send_batch "";
    dsts = Array.make send_batch 0;
    slab = slab_create slots max_datagram;
    lens = Array.make slots 0;
    srcs = Array.make slots no_addr;
    batch = Array.make slots "";
    dispatching = false;
    handler = (fun ~src:_ _ -> ());
    refused =
      Obs.Metrics.counter Obs.Metrics.default
        ~labels:[ ("instance", instance) ]
        "udp.send_refused";
  }

(* [sendmmsg t.sock bufs dsts off len] sends [bufs.(off)] onwards, each
   to the packed address at the same index in [dsts], up to the stub's
   batch cap in one syscall.  It returns how many left, or 0 when the
   first would block or a signal came; the kernel refusing the first
   datagram raises [Unix.Unix_error]. *)
external sendmmsg :
  Unix.file_descr -> string array -> int array -> int -> int -> int
  = "i3_udp_sendmmsg"

let wait_writable t =
  match Unix.select [] [ t.sock ] [] (-1.) with
  | (_ : _ * _ * _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Send [t.bufs.(i)] .. [t.bufs.(n - 1)].  A full send buffer (0 sent)
   waits until the socket is writable and resumes at the first unsent
   datagram, as a blocking socket would.  A datagram the kernel refuses
   for its destination (a peer-supplied port 0 or broadcast address) is
   counted and skipped, so no peer can stop the rest of the batch.  A
   closed socket (EBADF) or a kernel without sendmmsg (ENOSYS) still
   raises: neither is about one destination, and skipping would drop
   every datagram silently.  A top-level function, not a closure, so a
   send allocates nothing. *)
let rec send_from t i n =
  if i < n then
    match sendmmsg t.sock t.bufs t.dsts i (n - i) with
    | 0 ->
        wait_writable t;
        send_from t i n
    | sent -> send_from t (i + sent) n
    | exception (Unix.Unix_error ((Unix.EBADF | Unix.ENOSYS), _, _) as e) ->
        raise e
    | exception Unix.Unix_error _ ->
        Obs.Metrics.incr t.refused;
        send_from t (i + 1) n

(* Send the first [n] slots, then clear them, so no sent payload stays
   reachable from the socket. *)
let transmit t n =
  match send_from t 0 n with
  | () -> Array.fill t.bufs 0 n ""
  | exception e ->
      Array.fill t.bufs 0 n "";
      raise e

let check_size bytes =
  if String.length bytes > max_datagram then
    invalid_arg "Transport.Udp.send: datagram too large"

(* Sizes are checked before anything leaves, so an oversized datagram
   sends nothing; then the list goes out in chunks of [send_batch]. *)
let send_many t datagrams =
  List.iter (fun (_, bytes) -> check_size bytes) datagrams;
  let rec fill n = function
    | [] -> if n > 0 then transmit t n
    | (dst, bytes) :: rest ->
        t.bufs.(n) <- bytes;
        t.dsts.(n) <- dst;
        if n + 1 = send_batch then begin
          transmit t send_batch;
          fill 0 rest
        end
        else fill (n + 1) rest
  in
  fill 0 datagrams

(* One datagram fills slot 0: no list, tuple or array per send. *)
let send t ~dst bytes =
  check_size bytes;
  t.bufs.(0) <- bytes;
  t.dsts.(0) <- dst;
  transmit t 1

let set_handler t h = t.handler <- h
let local_addr t = t.local

(* One [recvmmsg] of up to [max] datagrams; returns how many arrived.
   Every datagram is copied out of the slab into a string of its exact
   length before the first handler runs, and the handlers then see them
   in arrival order.  A handler that receives again (a nested [poll])
   overwrites only the slab, and gets arrays of its own, so the batch
   still being dispatched stays intact. *)
let receive t max =
  let outer = t.dispatching in
  let srcs, batch =
    if outer then (Array.make slots no_addr, Array.make slots "")
    else (t.srcs, t.batch)
  in
  let n = recvmmsg t.sock t.slab t.lens srcs max in
  for i = 0 to n - 1 do
    batch.(i) <- slab_sub t.slab i t.lens.(i)
  done;
  t.dispatching <- true;
  (match
     for i = 0 to n - 1 do
       let bytes = batch.(i) in
       batch.(i) <- "";
       if srcs.(i) <> no_addr then t.handler ~src:srcs.(i) bytes
     done
   with
  | () -> t.dispatching <- outer
  | exception e ->
      t.dispatching <- outer;
      raise e);
  n

(* Wait up to [timeout] seconds for one datagram and dispatch it;
   returns whether one arrived.  It receives one datagram, not a batch,
   so a lone packet is handed on as soon as it lands.  A daemon's
   receive loop is [wait ~timeout] (block until traffic or deadline)
   followed by [poll ~now] (drain whatever else is already queued). *)
let wait t ~timeout =
  match Unix.select [ t.sock ] [] [] timeout with
  | [], _, _ -> false
  | _ -> receive t 1 = 1
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Dispatch every datagram already queued on the socket, without
   blocking.  A full batch may have left more behind; a short one means
   the queue was empty. *)
let poll t ~now:_ =
  let rec drain () = if receive t slots = slots then drain () in
  drain ()

let close t = Unix.close t.sock
