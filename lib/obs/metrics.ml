type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

type key = { k_name : string; k_labels : (string * string) list }

type t = { tbl : (key, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let default = create ()

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let key name labels = { k_name = name; k_labels = canon_labels labels }

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register reg name labels fresh project =
  let k = key name labels in
  match Hashtbl.find_opt reg.tbl k with
  | Some m -> (
      match project m with
      | Some h -> h
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
               (kind_name m)))
  | None ->
      let h, m = fresh () in
      Hashtbl.replace reg.tbl k m;
      h

let counter reg ?(labels = []) name =
  register reg name labels
    (fun () ->
      let c = { c_value = 0 } in
      (c, M_counter c))
    (function M_counter c -> Some c | _ -> None)

let gauge reg ?(labels = []) name =
  register reg name labels
    (fun () ->
      let g = { g_value = 0. } in
      (g, M_gauge g))
    (function M_gauge g -> Some g | _ -> None)

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Obs.Metrics.histogram: empty buckets";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Obs.Metrics.histogram: bucket bounds must be strictly increasing"
  done

let histogram reg ?(labels = []) ~buckets name =
  check_bounds buckets;
  register reg name labels
    (fun () ->
      let h =
        {
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      (h, M_histogram h))
    (function M_histogram h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value
let set g v = g.g_value <- v
let add g v = g.g_value <- g.g_value +. v
let gauge_value g = g.g_value

let bucket_index bounds v =
  (* first bucket whose upper bound admits v; overflow bucket otherwise *)
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_mean h = if h.h_count = 0 then nan else h.h_sum /. float_of_int h.h_count

let quantile h q =
  (* Pinned: an empty histogram has quantile 0 (not nan).  The telemetry
     plane serializes percentiles over the wire and compares decoded
     snapshots structurally; nan would poison both (nan <> nan). *)
  if h.h_count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int h.h_count in
    let nb = Array.length h.bounds in
    let rec find i cum =
      if i > nb then nb
      else
        let cum' = cum + h.counts.(i) in
        if float_of_int cum' >= rank && h.counts.(i) > 0 then i
        else find (i + 1) cum'
    in
    let i = find 0 0 in
    let lower = if i = 0 then h.h_min else h.bounds.(i - 1) in
    let upper = if i >= nb then h.h_max else h.bounds.(i) in
    let cum_before =
      let s = ref 0 in
      for j = 0 to i - 1 do
        s := !s + h.counts.(j)
      done;
      !s
    in
    let in_bucket = h.counts.(i) in
    let frac =
      if in_bucket = 0 then 1.
      else
        Float.max 0.
          (Float.min 1.
             ((rank -. float_of_int cum_before) /. float_of_int in_bucket))
    in
    let est = lower +. (frac *. (upper -. lower)) in
    Float.max h.h_min (Float.min h.h_max est)
  end

let linear_buckets ~start ~width ~count =
  if count <= 0 then invalid_arg "Obs.Metrics.linear_buckets: count must be > 0";
  Array.init count (fun i -> start +. (width *. float_of_int i))

let exponential_buckets ~start ~factor ~count =
  if count <= 0 then
    invalid_arg "Obs.Metrics.exponential_buckets: count must be > 0";
  if start <= 0. || factor <= 1. then
    invalid_arg "Obs.Metrics.exponential_buckets: need start > 0 and factor > 1";
  let b = Array.make count start in
  for i = 1 to count - 1 do
    b.(i) <- b.(i - 1) *. factor
  done;
  b

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
      max : float;
    }

type sample = { name : string; labels : (string * string) list; value : value }

let read = function
  | M_counter c -> Counter c.c_value
  | M_gauge g -> Gauge g.g_value
  | M_histogram h ->
      Histogram
        {
          count = h.h_count;
          sum = h.h_sum;
          p50 = quantile h 0.5;
          p90 = quantile h 0.9;
          p99 = quantile h 0.99;
          max = (if h.h_count = 0 then 0. else h.h_max);
        }

let snapshot ?prefix reg =
  let keep k =
    match prefix with
    | None -> true
    | Some p ->
        String.length k.k_name >= String.length p
        && String.sub k.k_name 0 (String.length p) = p
  in
  Hashtbl.fold
    (fun k m acc ->
      if keep k then { name = k.k_name; labels = k.k_labels; value = read m } :: acc
      else acc)
    reg.tbl []
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let find reg ?(labels = []) name =
  Option.map read (Hashtbl.find_opt reg.tbl (key name labels))

let sum_counters reg ?(labels = []) name =
  Hashtbl.fold
    (fun k m acc ->
      match m with
      | M_counter c
        when k.k_name = name
             && List.for_all (fun l -> List.mem l k.k_labels) labels ->
          acc + c.c_value
      | _ -> acc)
    reg.tbl 0

let remove reg ?(labels = []) name = Hashtbl.remove reg.tbl (key name labels)

let remove_where reg pred =
  let doomed =
    Hashtbl.fold
      (fun k _ acc ->
        if pred ~name:k.k_name ~labels:k.k_labels then k :: acc else acc)
      reg.tbl []
  in
  List.iter (Hashtbl.remove reg.tbl) doomed

let reset reg =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> c.c_value <- 0
      | M_gauge g -> g.g_value <- 0.
      | M_histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.h_count <- 0;
          h.h_sum <- 0.;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
    reg.tbl
