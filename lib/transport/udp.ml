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

type t = {
  sock : Unix.file_descr;
  local : int;
  buf : Bytes.t;
  mutable handler : src:int -> string -> unit;
}

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
  }

let send t ~dst bytes =
  let len = String.length bytes in
  if len > max_datagram then invalid_arg "Transport.Udp.send: datagram too large";
  ignore (Unix.sendto_substring t.sock bytes 0 len [] (sockaddr_of_addr dst))

let set_handler t h = t.handler <- h
let local_addr t = t.local

(* Wait up to [timeout] seconds for one datagram and dispatch it;
   returns whether one was handled.  A daemon's receive loop is
   [wait ~timeout] (block until traffic or deadline) followed by
   [poll ~now] (drain whatever else is already queued). *)
let wait t ~timeout =
  match Unix.select [ t.sock ] [] [] timeout with
  | [], _, _ -> false
  | _ -> (
      let len, peer = Unix.recvfrom t.sock t.buf 0 max_datagram [] in
      match addr_of_sockaddr peer with
      | Some src ->
          t.handler ~src (Bytes.sub_string t.buf 0 len);
          true
      | None -> false)

(* The [Transport.S] maintenance step: dispatch every datagram already
   queued on the socket, without blocking.  EINTR counts as empty. *)
let poll t ~now:_ =
  let rec drain () =
    if try wait t ~timeout:0.
       with Unix.Unix_error (Unix.EINTR, _, _) -> false
    then drain ()
  in
  drain ()

let close t = Unix.close t.sock
