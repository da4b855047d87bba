(* The effect interpreter between an [I3.Engine] and a byte transport.

   The engine decides *what* happens (protocol state, frames to emit,
   when it next needs the clock); this driver decides *how*: it decodes
   inbound datagrams into engine events, encodes outbound effects into
   datagrams through one [send] closure, and remembers the engine's
   latest [Set_timer] so the owning loop knows how long it may sleep.
   One driver works over any transport that can send bytes — [Udp],
   [Sim], or a [Faulty]-wrapped sender — which is what makes the
   dual-driver parity test meaningful: same engine, same events, same
   effects, different wires.

   The driver is also where step latency is measured: the engine is
   sans-IO and may not read a clock, but the driver sits right at the
   boundary and owns one, so [driver.step_ms] (labeled by event kind)
   is the honest cost of one engine step as a daemon experiences it. *)

module L = Wire.Layout

type t = {
  engine : I3.Engine.t;
  send : dst:int -> string -> unit;
  mutable on_effects : I3.Engine.effect list -> unit;
  mutable next_due : float option;  (* the last step's Set_timer *)
  metrics : Obs.Metrics.t;
  labels : (string * string) list;
  c_frames : Obs.Metrics.counter;
  c_sends : Obs.Metrics.counter;
  c_decode_errors : Obs.Metrics.counter;
  rx_kind : (int, Obs.Metrics.counter) Hashtbl.t;
  tx_kind : (int, Obs.Metrics.counter) Hashtbl.t;
  h_step : (string, Obs.Metrics.histogram) Hashtbl.t;
}

let create ?(metrics = Obs.Metrics.default) ?(instance = "driver") ~send
    engine =
  let labels = [ ("instance", instance) ] in
  {
    engine;
    send;
    on_effects = (fun _ -> ());
    (* Due at once: the first [tick] steps the engine, which starts its
       wheel at that step's clock. *)
    next_due = Some Float.neg_infinity;
    metrics;
    labels;
    c_frames = Obs.Metrics.counter metrics ~labels "driver.frames";
    c_sends = Obs.Metrics.counter metrics ~labels "driver.sends";
    c_decode_errors =
      Obs.Metrics.counter metrics
        ~labels:(labels @ [ ("proto", "frame") ])
        "wire.decode_errors";
    rx_kind = Hashtbl.create 8;
    tx_kind = Hashtbl.create 8;
    h_step = Hashtbl.create 8;
  }

let engine t = t.engine
let on_effects t f = t.on_effects <- f
let next_due t = t.next_due

(* Per-wire-kind traffic counters, registered on first sight of each
   kind so an idle daemon's registry stays small.  Frames too short to
   carry a kind byte are only an rx concern and count under "runt". *)
let count_kind t cache dir bytes =
  let k =
    if String.length bytes > L.off_kind then Char.code bytes.[L.off_kind]
    else -1
  in
  let c =
    match Hashtbl.find_opt cache k with
    | Some c -> c
    | None ->
        let name = if k < 0 then "runt" else L.kind_name k in
        let c =
          Obs.Metrics.counter t.metrics ~labels:t.labels
            (Printf.sprintf "driver.%s.%s" dir name)
        in
        Hashtbl.replace cache k c;
        c
  in
  Obs.Metrics.incr c

let interpret t effects =
  List.iter
    (fun eff ->
      match I3.Engine.encode_effect eff with
      | Some (dst, bytes) ->
          Obs.Metrics.incr t.c_sends;
          count_kind t t.tx_kind "tx" bytes;
          t.send ~dst bytes
      | None -> (
          match eff with
          | I3.Engine.Set_timer due -> t.next_due <- Some due
          | _ -> ()))
    effects;
  t.on_effects effects

let step_buckets =
  (* 1 µs .. ~130 ms in octaves: engine steps are microseconds when
     healthy, and the overflow bucket catches a stalled sweep. *)
  Obs.Metrics.exponential_buckets ~start:0.001 ~factor:2. ~count:18

let event_kind : I3.Engine.event -> string = function
  | I3.Engine.Tick -> "tick"
  | I3.Engine.Frame _ -> "frame"
  | I3.Engine.Batch _ -> "batch"
  | I3.Engine.Insert_trigger _ -> "insert_trigger"
  | I3.Engine.Remove_trigger _ -> "remove_trigger"
  | I3.Engine.Send_packet _ -> "send_packet"

let step_hist t kind =
  match Hashtbl.find_opt t.h_step kind with
  | Some h -> h
  | None ->
      let h =
        Obs.Metrics.histogram t.metrics
          ~labels:(t.labels @ [ ("event", kind) ])
          ~buckets:step_buckets "driver.step_ms"
      in
      Hashtbl.replace t.h_step kind h;
      h

let step t ~now event =
  let t0 = Unix.gettimeofday () in
  let effects = I3.Engine.step t.engine ~now event in
  Obs.Metrics.observe
    (step_hist t (event_kind event))
    ((Unix.gettimeofday () -. t0) *. 1000.);
  (* Every step ends with the engine's next deadline, if it has one, so
     a step without [Set_timer] means no timer is pending. *)
  t.next_due <- None;
  interpret t effects

let on_datagram t ~now ~src bytes =
  Obs.Metrics.incr t.c_frames;
  count_kind t t.rx_kind "rx" bytes;
  match I3.Engine.decode bytes with
  | Error _ -> Obs.Metrics.incr t.c_decode_errors
  | Ok frame -> step t ~now (I3.Engine.Frame { src; frame })

(* Drain a whole receive backlog through one engine step: per-datagram
   accounting stays identical to [on_datagram] (frame counts, rx kinds,
   decode errors), but the decodable frames travel as one [Batch] so
   the engine pays its timer advance and outbox drain once. *)
let on_datagrams t ~now datagrams =
  let frames =
    List.filter_map
      (fun (src, bytes) ->
        Obs.Metrics.incr t.c_frames;
        count_kind t t.rx_kind "rx" bytes;
        match I3.Engine.decode bytes with
        | Error _ ->
            Obs.Metrics.incr t.c_decode_errors;
            None
        | Ok frame -> Some (I3.Engine.Frame { src; frame }))
      datagrams
  in
  match frames with
  | [] -> ()
  | [ one ] -> step t ~now one
  | many -> step t ~now (I3.Engine.Batch many)

(* A [Tick] step before the deadline would fire nothing, so the loop's
   per-turn tick costs an engine step only when a timer is due. *)
let tick t ~now =
  match t.next_due with
  | Some due when due <= now -> step t ~now I3.Engine.Tick
  | Some _ | None -> ()

(* How long the owning loop may block before the next [tick]: the gap
   to the engine's last announced deadline, clamped to [cap] (seconds,
   for a select timeout) and never negative. *)
let timeout t ~now ~cap =
  match t.next_due with
  | None -> cap
  | Some due -> Float.min cap (Float.max 0. ((due -. now) /. 1000.))
