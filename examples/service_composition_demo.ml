(* Service composition (paper Sec. III-A/B, Fig. 4): the WAP gateway
   scenario — HTML pages are transcoded to WML on the way to a wireless
   client — plus receiver-driven heterogeneous multicast, where one MPEG
   stream feeds both an MPEG player and an H.263 player through a
   transcoder. Run with:  dune exec examples/service_composition_demo.exe *)

let () =
  let d = Transport.Deployment.create ~seed:33 ~n_servers:32 () in
  let rng = Transport.Deployment.rng d in

  (* --- 1. sender-driven: web server -> HTML/WML gateway -> phone --- *)
  let gateway_host = Transport.Deployment.new_host d () in
  let phone = Transport.Deployment.new_host d () in
  let web_server = Transport.Deployment.new_host d () in
  let html_to_wml page =
    "<wml>" ^ String.concat "" (String.split_on_char '<' page |> List.filteri (fun i _ -> i = 0))
    ^ "transcoded</wml>"
  in
  let gateway_id = Id.name_hash "wap-gateway.example.net" in
  let gw =
    I3apps.Service_composition.attach gateway_host ~service_id:gateway_id
      ~transform:html_to_wml
  in
  I3.Host.on_receive phone (fun ~stack:_ ~payload ->
      Printf.printf "phone renders: %s\n" payload);
  let flow = Id.random rng in
  I3.Host.insert_trigger phone flow;
  Transport.Deployment.run_for d 1_000.;
  I3apps.Service_composition.send_via web_server ~services:[ gateway_id ] ~flow
    "<html>hello wap</html>";
  Transport.Deployment.run_for d 1_000.;
  Printf.printf "gateway processed %d page(s)\n\n"
    (I3apps.Service_composition.processed_count gw);

  (* --- 2. receiver-driven: heterogeneous multicast (paper Fig. 4b) --- *)
  let mpeg_player = Transport.Deployment.new_host d () in
  let h263_player = Transport.Deployment.new_host d () in
  let transcoder_host = Transport.Deployment.new_host d () in
  let source = Transport.Deployment.new_host d () in
  I3.Host.on_receive mpeg_player (fun ~stack:_ ~payload ->
      Printf.printf "mpeg_play : %s\n" payload);
  I3.Host.on_receive h263_player (fun ~stack:_ ~payload ->
      Printf.printf "tmndec    : %s\n" payload);
  let svc = Id.name_hash "mpeg-to-h263.transcoders.net" in
  let _ =
    I3apps.Service_composition.attach transcoder_host ~service_id:svc
      ~transform:(fun frame -> "H263[" ^ frame ^ "]")
  in
  (* h263 player needs its own receive handler back after attach: it is a
     separate host, so nothing to restore — each host has one role. *)
  let group = Id.name_hash "seminar-stream" in
  I3apps.Heterogeneous_multicast.subscribe_native mpeg_player ~group;
  ignore
    (I3apps.Heterogeneous_multicast.subscribe_via h263_player rng ~group
       ~service:svc);
  Transport.Deployment.run_for d 1_000.;
  for i = 1 to 3 do
    I3apps.Heterogeneous_multicast.publish source ~group
      (Printf.sprintf "MPEG-frame-%d" i);
    Transport.Deployment.run_for d 1_000.
  done
