type group = Id.t

let create_group rng = Id.random rng
let named_group name = Id.name_hash name

let join host group = I3.Host.insert_trigger host group
let leave host group = I3.Host.remove_trigger host group
let send host group payload = I3.Host.send host group payload

let member_count deployment group =
  let server = Transport.Deployment.responsible_server deployment group in
  let n = ref 0 in
  I3.Trigger_table.iter (I3.Server.triggers server) (fun tr ~expires:_ ->
      if Id.equal tr.I3.Trigger.id group then incr n);
  !n
