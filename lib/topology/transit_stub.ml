type t = {
  graph : Graph.t;
  transit : int array;
  stub : int array;
}

(* The paper's GT-ITM parameters (Sec. V). *)
let transit_domains = 4
let transit_nodes = 4
let stubs_per_transit = 3
let intra_transit_ms = 100.
let transit_stub_ms = 10.
let intra_stub_ms = 1.

let generate rng ~n () =
  let core = transit_domains * transit_nodes in
  let total_stub_domains = core * stubs_per_transit in
  if n < core + total_stub_domains then
    invalid_arg "Transit_stub.generate: n too small for the transit core";
  let g = Graph.create ~n in
  (* Nodes 0 .. core-1 are transit routers, grouped by domain. *)
  let transit = Array.init core Fun.id in
  (* Intra-domain: ring plus a random chord for redundancy. *)
  for d = 0 to transit_domains - 1 do
    let base = d * transit_nodes in
    for i = 0 to transit_nodes - 1 do
      Graph.add_edge g (base + i)
        (base + ((i + 1) mod transit_nodes))
        intra_transit_ms
    done;
    let a = base + Rng.int rng transit_nodes
    and b = base + Rng.int rng transit_nodes in
    if a <> b && not (Graph.has_edge g a b) then
      Graph.add_edge g a b intra_transit_ms
  done;
  (* Inter-domain: ring of domains through random gateway routers, plus one
     random extra link per domain. *)
  let gateway d = (d * transit_nodes) + Rng.int rng transit_nodes in
  for d = 0 to transit_domains - 1 do
    let u = gateway d and v = gateway ((d + 1) mod transit_domains) in
    if not (Graph.has_edge g u v) then Graph.add_edge g u v intra_transit_ms
  done;
  for d = 0 to transit_domains - 1 do
    let d' = Rng.int rng transit_domains in
    if d <> d' then begin
      let u = gateway d and v = gateway d' in
      if u <> v && not (Graph.has_edge g u v) then
        Graph.add_edge g u v intra_transit_ms
    end
  done;
  (* Stub domains: split the remaining nodes as evenly as possible. *)
  let remaining = n - core in
  let base_size = remaining / total_stub_domains in
  let extra = remaining mod total_stub_domains in
  let next_node = ref core in
  let stub_nodes = ref [] in
  for domain = 0 to total_stub_domains - 1 do
    let size = base_size + (if domain < extra then 1 else 0) in
    if size > 0 then begin
      let members = Array.init size (fun i -> !next_node + i) in
      next_node := !next_node + size;
      Array.iter (fun u -> stub_nodes := u :: !stub_nodes) members;
      (* Internal structure: random spanning tree plus ~size/3 extra edges. *)
      for i = 1 to size - 1 do
        let parent = members.(Rng.int rng i) in
        Graph.add_edge g members.(i) parent intra_stub_ms
      done;
      for _ = 1 to size / 3 do
        let a = Rng.choose rng members and b = Rng.choose rng members in
        if a <> b && not (Graph.has_edge g a b) then
          Graph.add_edge g a b intra_stub_ms
      done;
      (* Uplink to this domain's transit router. *)
      let transit_router = domain / stubs_per_transit in
      Graph.add_edge g (Rng.choose rng members) transit_router transit_stub_ms
    end
  done;
  ignore (Graph.connect_components g rng ~weight:transit_stub_ms);
  {
    graph = g;
    transit;
    stub = Array.of_list (List.rev !stub_nodes);
  }
