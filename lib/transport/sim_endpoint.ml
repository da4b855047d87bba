(* [Transport.Sim]: byte datagrams over a simulated [Net].  Delivery is
   the scheduler's job; the endpoint holds no queues. *)

type t = {
  net : string Net.t;
  mutable addr : Net.addr;
  mutable handler : src:int -> string -> unit;
}

let attach net ~site =
  let t = { net; addr = -1; handler = (fun ~src:_ _ -> ()) } in
  t.addr <- Net.register net ~site (fun ~src bytes -> t.handler ~src bytes);
  t

let send t ~dst bytes = Net.send t.net ~src:t.addr ~dst bytes
let set_handler t h = t.handler <- h
let local_addr t = t.addr
let poll _ ~now:_ = ()
