let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
  acc /. float_of_int (Array.length xs)

let stdev xs = sqrt (variance xs)

let percentile p xs =
  check_nonempty "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile 50. xs

let minimum xs =
  check_nonempty "Stats.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "Stats.maximum" xs;
  Array.fold_left max xs.(0) xs

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  {
    n = Array.length xs;
    mean = mean xs;
    stdev = stdev xs;
    min = minimum xs;
    p50 = percentile 50. xs;
    p90 = percentile 90. xs;
    p99 = percentile 99. xs;
    max = maximum xs;
  }

let histogram ~bins xs =
  check_nonempty "Stats.histogram" xs;
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo = minimum xs and hi = maximum xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = if i >= bins then bins - 1 else i in
      counts.(i) <- counts.(i) + 1)
    xs;
  Array.init bins (fun i ->
      let l = lo +. (float_of_int i *. width) in
      (l, l +. width, counts.(i)))
