let host_pair rng model =
  let sites = Topology.Model.eligible_sites model in
  let a = Rng.choose rng sites in
  let rec pick () =
    let b = Rng.choose rng sites in
    if b = a && Array.length sites > 1 then pick () else b
  in
  (a, pick ())

let placed_ring rng model ~n_servers =
  let oracle = Chord.Oracle.random (Rng.split rng) ~n:n_servers in
  let sites =
    Topology.Model.place_servers (Rng.split rng) model ~count:n_servers
  in
  let ring_latency i j =
    if sites.(i) = sites.(j) then 0.
    else Topology.Model.latency model sites.(i) sites.(j)
  in
  (oracle, sites, ring_latency)

let payload rng n = Bytes.to_string (Rng.bytes rng n)

let ids rng n = Array.init n (fun _ -> Id.random rng)

let log2i n =
  if n <= 0 then invalid_arg "Workload.log2i";
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n
