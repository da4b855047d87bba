type flow = {
  id : Id.t;
  listener : I3.Host.t;
  sender : I3.Host.t;
  mutable count : int;
}

let establish ~rng ~listener ~sender ~on_data =
  let id = Id.random rng in
  let f = { id; listener; sender; count = 0 } in
  I3.Host.on_receive listener (fun ~stack:_ ~payload ->
      f.count <- f.count + 1;
      on_data payload);
  I3.Host.insert_trigger listener id;
  f

let send f payload = I3.Host.send f.sender f.id payload
let received f = f.count

let move_receiver f ~new_site = I3.Host.move f.listener ~new_site
let move_sender f ~new_site = I3.Host.move f.sender ~new_site

let roam ~engine f ~sites ~dwell_ms =
  if dwell_ms <= 0. then invalid_arg "Mobility.roam: dwell must be positive";
  List.iteri
    (fun i site ->
      Engine.schedule engine
        ~delay:(float_of_int (i + 1) *. dwell_ms)
        (fun () -> move_receiver f ~new_site:site))
    sites
