type point = { at : float; value : float }

type t = {
  name : string;
  labels : (string * string) list;
  ring : point array;
  mutable write : int;  (* next slot, monotonically increasing *)
}

let dummy = { at = neg_infinity; value = nan }

let make ~capacity name labels =
  { name; labels; ring = Array.make capacity dummy; write = 0 }

let name s = s.name
let labels s = s.labels
let length s = min s.write (Array.length s.ring)

let push s ~at v =
  let n = Array.length s.ring in
  s.ring.(s.write mod n) <- { at; value = v };
  s.write <- s.write + 1

let points s =
  let n = Array.length s.ring in
  let live = length s in
  let first = s.write - live in
  let out = ref [] in
  for i = first + live - 1 downto first do
    out := s.ring.(i mod n) :: !out
  done;
  !out

let latest s =
  if s.write = 0 then None
  else Some s.ring.((s.write - 1) mod Array.length s.ring)

let window s ~now ~window_ms =
  let cutoff = now -. window_ms in
  List.filter (fun p -> p.at >= cutoff) (points s)

let delta_over s ~now ~window_ms =
  match window s ~now ~window_ms with
  | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      Some (last.value -. first.value)
  | _ -> None

let rate_per_sec s ~now ~window_ms =
  match window s ~now ~window_ms with
  | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      let dt = last.at -. first.at in
      if dt <= 0. then None else Some ((last.value -. first.value) /. dt *. 1000.)
  | _ -> None

(* Stores *)

type skey = { sk_name : string; sk_labels : (string * string) list }

type store = {
  capacity : int;
  tbl : (skey, t) Hashtbl.t;
  mutable n_scrapes : int;
}

let store ?(capacity = 512) () =
  if capacity <= 0 then invalid_arg "Obs.Series.store: capacity must be > 0";
  { capacity; tbl = Hashtbl.create 64; n_scrapes = 0 }

let series_of st name labels =
  (* labels arrive canonical from [Metrics.snapshot]; [get] re-canonicalises *)
  let k = { sk_name = name; sk_labels = labels } in
  match Hashtbl.find_opt st.tbl k with
  | Some s -> s
  | None ->
      let s = make ~capacity:st.capacity name labels in
      Hashtbl.replace st.tbl k s;
      s

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let ingest st ~time samples =
  st.n_scrapes <- st.n_scrapes + 1;
  List.iter
    (fun { Metrics.name; labels; value } ->
      let labels = canon_labels labels in
      let put n v = push (series_of st n labels) ~at:time v in
      match value with
      | Metrics.Counter c -> put name (float_of_int c)
      | Metrics.Gauge g -> put name g
      | Metrics.Histogram { count; p50; p90; p99; _ } ->
          put (name ^ ".count") (float_of_int count);
          if count > 0 then begin
            put (name ^ ".p50") p50;
            put (name ^ ".p90") p90;
            put (name ^ ".p99") p99
          end)
    samples

let scrape st ~time reg = ingest st ~time (Metrics.snapshot reg)

let scrapes st = st.n_scrapes

let get st ?(labels = []) name =
  Hashtbl.find_opt st.tbl { sk_name = name; sk_labels = canon_labels labels }

let all st =
  Hashtbl.fold (fun _ s acc -> s :: acc) st.tbl []
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)
