(* Attachment edges each arriving node creates, and the link-delay range
   (ms). *)
let links_per_node = 2
let delay_lo = 5.
let delay_hi = 100.

let generate rng ~n () =
  if n <= links_per_node then invalid_arg "Plrg.generate: n too small";
  let g = Graph.create ~n in
  let delay () = Rng.float_in rng delay_lo delay_hi in
  (* Seed clique over the first links_per_node + 1 nodes. *)
  let seed = links_per_node + 1 in
  for u = 0 to seed - 1 do
    for v = u + 1 to seed - 1 do
      Graph.add_edge g u v (delay ())
    done
  done;
  (* Preferential attachment: [targets] holds one entry per edge endpoint,
     so uniform sampling from it is degree-proportional sampling. *)
  let targets = ref [] in
  let target_count = ref 0 in
  let push u =
    targets := u :: !targets;
    incr target_count
  in
  for u = 0 to seed - 1 do
    for _ = 1 to Graph.degree g u do
      push u
    done
  done;
  let target_arr = ref (Array.of_list !targets) in
  let arr_valid = ref !target_count in
  let sample_target () =
    (* Rebuild the sampling array lazily when new endpoints accumulated. *)
    if !arr_valid <> !target_count then begin
      target_arr := Array.of_list !targets;
      arr_valid := !target_count
    end;
    (!target_arr).(Rng.int rng !target_count)
  in
  for u = seed to n - 1 do
    let chosen = Hashtbl.create links_per_node in
    let attached = ref 0 in
    let attempts = ref 0 in
    while !attached < links_per_node && !attempts < 50 * links_per_node do
      incr attempts;
      let v = sample_target () in
      if v <> u && not (Hashtbl.mem chosen v) then begin
        Hashtbl.add chosen v ();
        Graph.add_edge g u v (delay ());
        push v;
        incr attached
      end
    done;
    for _ = 1 to !attached do
      push u
    done
  done;
  ignore (Graph.connect_components g rng ~weight:delay_hi);
  g
