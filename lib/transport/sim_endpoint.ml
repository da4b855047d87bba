(* [Transport.Sim]: byte datagrams over a simulated [Net].  Delivery is
   the scheduler's job; the endpoint holds no queues.  Whatever steps on
   it (a member's driver, a host's machine) keeps one pending scheduler
   wake-up here, at the deadline its last step announced. *)

type t = {
  net : string Net.t;
  mutable addr : Net.addr;
  mutable handler : src:int -> string -> unit;
  mutable wake : float option;  (* the one pending scheduler wake-up *)
  mutable live : bool;  (* a stopped endpoint's wake-ups do nothing *)
}

let register t ~site =
  t.addr <- Net.register t.net ~site (fun ~src bytes -> t.handler ~src bytes)

let attach net ~site =
  let t =
    { net; addr = -1; handler = (fun ~src:_ _ -> ()); wake = None; live = true }
  in
  register t ~site;
  t

let send t ~dst bytes = Net.send t.net ~src:t.addr ~dst bytes
let set_handler t h = t.handler <- h
let local_addr t = t.addr

(* A fresh address at [site]; the old one stops receiving. *)
let move t ~site =
  let old = t.addr in
  register t ~site;
  Net.set_down t.net old

(* Keep one scheduler event at the deadline [next_due] reports; an
   earlier pending wake-up covers it, since its [tick] re-arms. *)
let rec arm t ~next_due ~tick =
  match (next_due (), t.wake) with
  | None, _ -> ()
  | Some due, Some pending when pending <= due -> ()
  | Some due, _ ->
      t.wake <- Some due;
      let engine = Net.engine t.net in
      Engine.schedule_at engine ~time:due (fun () ->
          if t.live && t.wake = Some due then begin
            t.wake <- None;
            tick ~now:(Engine.now engine);
            arm t ~next_due ~tick
          end)
