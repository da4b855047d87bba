let labels_to_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

let aligned_table rows =
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell ->
            let prev = try List.nth acc i with _ -> 0 in
            max prev (String.length cell))
          row)
      [] rows
  in
  List.iter
    (fun row ->
      let cells = List.mapi (fun i cell -> pad (List.nth widths i) cell) row in
      print_endline (String.trim (String.concat "  " cells)))
    rows

(* RFC 4180: quote any cell containing a comma, quote, CR or LF; double
   embedded quotes. *)
let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_row cells = String.concat "," (List.map csv_cell cells)

let json_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let json_float f = if Float.is_finite f then Json.Float f else Json.Null

let sample_to_json (s : Metrics.sample) =
  let open Json in
  let value_fields =
    match s.Metrics.value with
    | Metrics.Counter c -> [ ("kind", String "counter"); ("value", Int c) ]
    | Metrics.Gauge g -> [ ("kind", String "gauge"); ("value", json_float g) ]
    | Metrics.Histogram { count; sum; p50; p90; p99; max } ->
        [
          ("kind", String "histogram");
          ("count", Int count);
          ("sum", json_float sum);
          ("p50", json_float p50);
          ("p90", json_float p90);
          ("p99", json_float p99);
          ("max", json_float max);
        ]
  in
  Obj
    (("name", String s.Metrics.name)
    :: ("labels", json_labels s.Metrics.labels)
    :: value_fields)

let event_to_json (e : Trace.event) =
  let open Json in
  let parent =
    match e.Trace.kind with
    | Trace.Op { parent; _ } -> [ ("parent", Int parent) ]
    | _ -> []
  in
  Obj
    ([
       ("trace", Int e.Trace.trace);
       ("time_ms", Float e.Trace.time);
       ("site", Int e.Trace.site);
       ("event", String (Trace.kind_to_string e.Trace.kind));
     ]
    @ parent)

let tree_to_json (t : Trace.tree) =
  let open Json in
  Obj
    [
      ("trace", Int t.Trace.a_trace);
      ("sites", List (List.map (fun s -> Int s) t.Trace.a_sites));
      ("terminal", Bool t.Trace.a_terminal);
      ("events", List (List.map event_to_json t.Trace.a_events));
    ]

let trace_summaries_csv summaries =
  String.concat ""
    ("trace,sends,hops,relays,delivers,drops,drop_causes,first_ms,last_ms\n"
    :: List.map
         (fun (s : Trace.summary) ->
           csv_row
             [
               string_of_int s.Trace.s_trace;
               string_of_int s.Trace.sends;
               string_of_int s.Trace.hops;
               string_of_int s.Trace.relays;
               string_of_int s.Trace.delivers;
               string_of_int s.Trace.drops;
               String.concat "," s.Trace.drop_causes;
               Printf.sprintf "%.3f" s.Trace.first_time;
               Printf.sprintf "%.3f" s.Trace.last_time;
             ]
           ^ "\n")
         summaries)

(* Series and health *)

let series_to_json ?tail (s : Series.t) =
  let pts = Series.points s in
  let pts =
    match tail with
    | Some n when List.length pts > n ->
        List.filteri (fun i _ -> i >= List.length pts - n) pts
    | _ -> pts
  in
  let open Json in
  Obj
    [
      ("name", String (Series.name s));
      ("labels", json_labels (Series.labels s));
      ( "points",
        List
          (List.map
             (fun (p : Series.point) ->
               List [ Float p.Series.at; json_float p.Series.value ])
             pts) );
    ]

let evaluation_to_json (e : Health.evaluation) =
  let open Json in
  Obj
    [
      ("rule", String e.Health.rule);
      ("at_ms", Float e.Health.at);
      ( "value",
        match e.Health.value with Some v -> json_float v | None -> Null );
      ("verdict", String (Health.verdict_to_string e.Health.verdict));
    ]

let flight_record ~at ~reason ?(metrics = []) ?(series = []) ?(spans = [])
    ?(events = []) ?(evaluations = []) () =
  let open Json in
  Obj
    [
      ("at_ms", Float at);
      ("reason", String reason);
      ("evaluations", List (List.map evaluation_to_json evaluations));
      ("metrics", List (List.map sample_to_json metrics));
      ("series", List (List.map (series_to_json ~tail:32) series));
      ("spans", List (List.map event_to_json spans));
      ("traces", List (List.map event_to_json events));
    ]
