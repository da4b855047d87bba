type plan = {
  root : Id.t;
  internal_edges : (Id.t * Id.t) list;
  attachment : Id.t array;
  degree : int;
}

let plan rng ~root ~members ~degree =
  if degree < 2 then invalid_arg "Scalable_multicast.plan: degree < 2";
  if members < 0 then invalid_arg "Scalable_multicast.plan: members < 0";
  let edges = ref [] in
  let attachment = Array.make (max members 1) root in
  (* Recursively split the member interval under [node]; any identifier
     fans out to at most [degree] triggers. *)
  let rec assign node lo hi =
    let count = hi - lo in
    if count <= degree then
      for i = lo to hi - 1 do
        attachment.(i) <- node
      done
    else begin
      let per_child = (count + degree - 1) / degree in
      let start = ref lo in
      while !start < hi do
        let child = Id.random rng in
        edges := (node, child) :: !edges;
        let stop = min hi (!start + per_child) in
        assign child !start stop;
        start := stop
      done
    end
  in
  if members > 0 then assign root 0 members;
  {
    root;
    internal_edges = List.rev !edges;
    attachment = (if members = 0 then [||] else attachment);
    degree;
  }

let fanout_histogram p =
  let tbl = Hashtbl.create 64 in
  let bump id =
    Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  List.iter (fun (parent, _) -> bump parent) p.internal_edges;
  Array.iter bump p.attachment;
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) tbl []

let deploy ~coordinator ~members p =
  if Array.length members <> Array.length p.attachment then
    invalid_arg "Scalable_multicast.deploy: member count mismatch";
  List.iter
    (fun (parent, child) ->
      Transport.Host.insert_stack_trigger coordinator parent [ I3.Packet.Sid child ])
    p.internal_edges;
  Array.iteri
    (fun i host -> Transport.Host.insert_trigger host p.attachment.(i))
    members

let send host p payload = Transport.Host.send host p.root payload
