type shield = {
  host : Transport.Host.t;
  ids : Id.t list; (* entry first *)
}

let build host rng ~hops =
  if hops < 1 then invalid_arg "Anonymity.build: hops < 1";
  let ids = List.init hops (fun _ -> Id.random rng) in
  let rec link = function
    | [] -> ()
    | [ last ] -> Transport.Host.insert_trigger host last
    | a :: (b :: _ as rest) ->
        Transport.Host.insert_stack_trigger host a [ I3.Packet.Sid b ];
        link rest
  in
  link ids;
  { host; ids }

let entry_id t = List.hd t.ids
let chain_ids t = t.ids

let exit_server_only_knows_addr deployment t =
  let points_to_addr id =
    let server = Transport.Deployment.responsible_server deployment id in
    List.exists I3.Trigger.points_to_host
      (I3.Trigger_table.find_matches
         (I3.Server.triggers server)
         ~now:(Transport.Deployment.now deployment)
         id)
  in
  let rec check = function
    | [] -> false
    | [ last ] -> points_to_addr last
    | inner :: rest -> (not (points_to_addr inner)) && check rest
  in
  check t.ids

let tear_down t = List.iter (Transport.Host.remove_trigger t.host) t.ids
