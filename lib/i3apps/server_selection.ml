type member = {
  host : Transport.Host.t;
  mutable trigger_ids : Id.t list;
}

let join_weighted host rng ~group ~capacity =
  if capacity < 1 then invalid_arg "Server_selection.join_weighted: capacity";
  let ids =
    List.init capacity (fun _ -> Anycast.join host rng ~group ())
  in
  { host; trigger_ids = ids }

let set_capacity member rng ~group capacity =
  if capacity < 0 then invalid_arg "Server_selection.set_capacity";
  let current = List.length member.trigger_ids in
  if capacity > current then
    for _ = current + 1 to capacity do
      member.trigger_ids <-
        Anycast.join member.host rng ~group () :: member.trigger_ids
    done
  else begin
    let rec drop k ids =
      if k = 0 then ids
      else
        match ids with
        | [] -> []
        | id :: rest ->
            Transport.Host.remove_trigger member.host id;
            drop (k - 1) rest
    in
    member.trigger_ids <- drop (current - capacity) member.trigger_ids
  end

let request_any host rng ~group payload = Anycast.send host rng ~group payload

let location_code ~zip =
  (* Pad to the full preference width so equal zips give maximal matches
     and distinct zips diverge at their first differing character. *)
  let width = Anycast.suffix_bytes - 4 in
  if String.length zip >= width then String.sub zip 0 width
  else zip ^ String.make (width - String.length zip) '\x00'

let join_near host rng ~group ~zip =
  let id =
    Anycast.join host rng ~group ~preference:(location_code ~zip) ()
  in
  { host; trigger_ids = [ id ] }

let request_near host rng ~group ~zip payload =
  Anycast.send host rng ~group ~preference:(location_code ~zip) payload

let leave member =
  List.iter (Transport.Host.remove_trigger member.host) member.trigger_ids;
  member.trigger_ids <- []
