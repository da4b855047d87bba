let subscribe_native host ~group = Transport.Host.insert_trigger host group

let subscribe_via host rng ~group ~service =
  let private_id = Id.random rng in
  Transport.Host.insert_stack_trigger host group
    [ I3.Packet.Sid service; I3.Packet.Sid private_id ];
  Transport.Host.insert_trigger host private_id;
  private_id

let publish host ~group payload = Transport.Host.send host group payload
