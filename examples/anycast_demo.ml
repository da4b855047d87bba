(* Anycast and server selection (paper Secs. II-D3, III-C): members of a
   group share the k-bit prefix of their trigger identifiers and encode
   preferences in the suffix; longest-prefix matching picks one best
   server per packet. Run with:  dune exec examples/anycast_demo.exe *)

let () =
  let d = Transport.Deployment.create ~seed:21 ~n_servers:32 () in
  let rng = Transport.Deployment.rng d in

  (* --- 1. capacity-weighted load balancing --- *)
  let group = I3apps.Anycast.named_group "www.example.com" in
  let farm =
    List.map
      (fun (name, capacity) ->
        let host = Transport.Deployment.new_host d () in
        let served = ref 0 in
        Transport.Host.on_receive host (fun ~stack:_ ~payload:_ -> incr served);
        let _m = I3apps.Server_selection.join_weighted host rng ~group ~capacity in
        (name, capacity, served))
      [ ("web-1 (big)", 6); ("web-2 (mid)", 3); ("web-3 (small)", 1) ]
  in
  let client = Transport.Deployment.new_host d () in
  Transport.Deployment.run_for d 1_000.;
  for _ = 1 to 300 do
    I3apps.Server_selection.request_any client rng ~group "GET /"
  done;
  Transport.Deployment.run_for d 3_000.;
  print_endline "capacity-weighted anycast over 300 requests:";
  List.iter
    (fun (name, capacity, served) ->
      Printf.printf "  %-14s capacity=%d served=%3d (%.0f%%)\n" name capacity
        !served
        (100. *. float_of_int !served /. 300.))
    farm;

  (* --- 2. locality-aware selection ("zip code" suffixes) --- *)
  let cdn = I3apps.Anycast.named_group "cdn.example.com" in
  let edges =
    List.map
      (fun zip ->
        let host = Transport.Deployment.new_host d () in
        let served = ref 0 in
        Transport.Host.on_receive host (fun ~stack:_ ~payload:_ -> incr served);
        ignore (I3apps.Server_selection.join_near host rng ~group:cdn ~zip);
        (zip, served))
      [ "94704"; "10001"; "60601" ]
  in
  Transport.Deployment.run_for d 1_000.;
  List.iter
    (fun (zip, n) ->
      for _ = 1 to n do
        I3apps.Server_selection.request_near client rng ~group:cdn ~zip "GET /asset"
      done)
    [ ("94704", 30); ("10001", 20); ("60601", 10) ];
  Transport.Deployment.run_for d 3_000.;
  print_endline "locality-aware anycast (requests land at the same-zip edge):";
  List.iter
    (fun (zip, served) -> Printf.printf "  edge %s served %d requests\n" zip !served)
    edges
