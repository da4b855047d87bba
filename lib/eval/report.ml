let csv ~path ~header rows =
  let oc = open_out path in
  let emit row = output_string oc (Obs.Sink.csv_row row ^ "\n") in
  emit header;
  List.iter emit rows;
  close_out oc

(* A cell that parses as a number is emitted as one, so downstream tools
   read measurements without re-parsing strings. *)
let json_cell s =
  match int_of_string_opt s with
  | Some i -> Json.Int i
  | None -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Json.Float f
      | _ -> Json.String s)

let row_to_json ~header row =
  Json.Obj
    (List.mapi
       (fun i key ->
         (key, json_cell (try List.nth row i with _ -> "")))
       header)

let json ~path ~header rows =
  Json.to_file ~path (Json.List (List.map (row_to_json ~header) rows))

let scalability_rows ~hosts ~triggers_per_host ~servers ~refresh_s =
  let triggers = hosts *. triggers_per_host in
  let per_server = triggers /. servers in
  let refreshes = per_server /. refresh_s in
  [
    ("end-hosts", Printf.sprintf "%.3g" hosts);
    ("triggers per host", Printf.sprintf "%.3g" triggers_per_host);
    ("total triggers", Printf.sprintf "%.3g" triggers);
    ("i3 servers", Printf.sprintf "%.3g" servers);
    ("triggers per server", Printf.sprintf "%.3g" per_server);
    ("refresh period (s)", Printf.sprintf "%.3g" refresh_s);
    ("refreshes/s per server", Printf.sprintf "%.3g" refreshes);
  ]

let insertion_capacity ~insert_ns ~refresh_s =
  refresh_s *. 1e9 /. insert_ns
