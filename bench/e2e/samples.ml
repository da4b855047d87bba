(* A growable buffer of measurements and the order statistics the
   benchmark reports. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n
let get t i = t.a.(i)

let concat ts =
  let r = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add r t.a.(i) done) ts;
  r

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Linear-interpolated percentile ([p] in 0..100) of sorted data; [nan]
   when empty. *)
let pct_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (lo + 1) (n - 1) in
    s.(lo) +. ((rank -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let pct t p = pct_sorted (sorted t) p

(* The mean of the samples between the [lo]th and [hi]th percentiles: a
   percentile that is not rounded to the clock's 1 ns steps, so a timing
   that did not change still reads slightly differently from run to
   run. *)
let band_mean t lo hi =
  let s = sorted t in
  let n = Array.length s in
  if n = 0 then nan
  else
    let at p = min (n - 1) (int_of_float (p /. 100. *. float_of_int n)) in
    let a = at lo in
    let b = max (a + 1) (at hi) in
    let sum = ref 0. in
    for i = a to b - 1 do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int (b - a)

let middle_mean t = band_mean t 25. 75.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method), so spreads printed by [--runs] match the
   ones computed from the final JSON lines. *)
let quartiles xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (s.(0), s.(0), s.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
