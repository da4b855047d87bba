(* The CPU's speed, sampled between measurements.

   On shared VMs a vCPU can alternate between a fast state and one
   1.3-1.6x slower, in stretches of 0.5 to 250 ms, as the host schedules
   other work beside it; every process on that vCPU slows down alike,
   daemons included (README.md, "Noise").  A fixed loop of about 0.4 us,
   timed between measurements, tells the states apart: a measurement
   counts as taken at full speed when every probe around it took at most
   [slack] times the 1st percentile of all probes. *)

type t = Samples.t

let create () = Samples.create ()
let slack = 1.15

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + ((i * i) lxor !acc)
  done;
  !acc

(* Time the loop once; returns and keeps its duration in ns. *)
let probe t =
  let t0 = Fleet.now_ns () in
  ignore (Sys.opaque_identity (spin (Sys.opaque_identity 300)));
  let d = float_of_int (Fleet.now_ns () - t0) in
  Samples.add t d;
  d

(* The longest a probe takes at full speed. *)
let limit t = slack *. Samples.pct t 1.

(* The values whose worst probe was at full speed. *)
let at_full_speed ~limit values worst =
  let fast = Samples.create () in
  for i = 0 to Samples.length values - 1 do
    if Samples.get worst i <= limit then Samples.add fast (Samples.get values i)
  done;
  fast

(* The values taken at full speed, or, when fewer than [min_count] were,
   the [min_count] least disturbed. *)
let filter ~limit ~min_count values worst =
  let limit =
    if min_count <= 0 then limit
    else if Samples.length worst <= min_count then infinity
    else Float.max limit (Samples.sorted worst).(min_count - 1)
  in
  at_full_speed ~limit values worst
