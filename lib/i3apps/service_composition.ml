type service = {
  host : Transport.Host.t;
  id : Id.t;
  mutable processed : int;
}

let attach host ~service_id ~transform =
  let s = { host; id = service_id; processed = 0 } in
  Transport.Host.insert_trigger host service_id;
  Transport.Host.on_receive host (fun ~stack ~payload ->
      s.processed <- s.processed + 1;
      (* An application receiving (stack, data) is expected to process the
         data and send it on with the same remaining stack (Sec. II-E). *)
      match stack with
      | [] -> ()
      | _ -> Transport.Host.send_stack host stack (transform payload));
  s

let service_id s = s.id
let processed_count s = s.processed

let send_via host ~services ~flow payload =
  let stack = List.map (fun id -> I3.Packet.Sid id) services @ [ I3.Packet.Sid flow ] in
  if List.length stack > I3.Packet.max_stack_depth then
    invalid_arg "Service_composition.send_via: too many services";
  Transport.Host.send_stack host stack payload
