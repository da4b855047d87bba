type kind = Plrg | Transit_stub

let kind_to_string = function
  | Plrg -> "plrg"
  | Transit_stub -> "transit-stub"

let kind_of_string = function
  | "plrg" -> Plrg
  | "transit-stub" | "ts" -> Transit_stub
  | s -> invalid_arg ("Model.kind_of_string: unknown kind " ^ s)

type t = {
  kind : kind option;
  graph : Graph.t;
  eligible : int array;
  oracle : Dijkstra.oracle;
}

let build rng kind ~n =
  match kind with
  | Plrg ->
      let graph = Plrg.generate rng ~n () in
      {
        kind = Some Plrg;
        graph;
        eligible = Array.init n Fun.id;
        oracle = Dijkstra.oracle graph;
      }
  | Transit_stub ->
      let ts = Transit_stub.generate rng ~n () in
      {
        kind = Some Transit_stub;
        graph = ts.Transit_stub.graph;
        eligible = ts.Transit_stub.stub;
        oracle = Dijkstra.oracle ts.Transit_stub.graph;
      }

let kind t = t.kind
let graph t = t.graph
let oracle t = t.oracle
let latency t u v = Dijkstra.distance t.oracle u v
let eligible_sites t = t.eligible

let place_servers rng t ~count =
  Array.init count (fun _ -> Rng.choose rng t.eligible)

let random_host_site rng t = Rng.choose rng t.eligible
