type event =
  | Partition of int list
  | Heal
  | Crash of int
  | Restart of int
  | Gray of { from_site : int; to_site : int }
  | Gray_heal of { from_site : int; to_site : int }
  | Burst_loss of { p_enter : float; p_exit : float; loss_bad : float }
  | Burst_end
  | Loss of float
  | Jitter of float
  | Latency_spike of float
  | Duplicate of float

type schedule = (float * event) list

let pp_event ppf = function
  | Partition sites ->
      Format.fprintf ppf "partition {%s}"
        (String.concat "," (List.map string_of_int sites))
  | Heal -> Format.fprintf ppf "heal"
  | Crash i -> Format.fprintf ppf "crash %d" i
  | Restart i -> Format.fprintf ppf "restart %d" i
  | Gray { from_site; to_site } ->
      Format.fprintf ppf "gray %d->%d" from_site to_site
  | Gray_heal { from_site; to_site } ->
      Format.fprintf ppf "gray-heal %d->%d" from_site to_site
  | Burst_loss { p_enter; p_exit; loss_bad } ->
      Format.fprintf ppf "burst-loss p_enter=%g p_exit=%g loss_bad=%g" p_enter
        p_exit loss_bad
  | Burst_end -> Format.fprintf ppf "burst-end"
  | Loss p -> Format.fprintf ppf "loss %g" p
  | Jitter ms -> Format.fprintf ppf "jitter %gms" ms
  | Latency_spike ms -> Format.fprintf ppf "latency-spike %gms" ms
  | Duplicate p -> Format.fprintf ppf "duplicate %g" p

(* --- the link-fault interpreter --- *)

module Int_set = Set.Make (Int)

(* Gilbert–Elliott two-state loss chain: each message advances the chain
   (Good -> Bad with [p_enter], Bad -> Good with [p_exit]), then a
   message in the Bad state is lost with [loss_bad]; the Good state is
   lossless.  Mean burst length is 1/p_exit messages. *)
type burst = {
  p_enter : float;
  p_exit : float;
  loss_bad : float;
  mutable bad : bool;
}

type t = {
  rng : Rng.t;
  mutable partitions : Int_set.t list;  (* each one a cut set *)
  gray : (int * int, unit) Hashtbl.t;  (* directed (src, dst) site cuts *)
  mutable burst : burst option;
  mutable loss : float;
  mutable duplicate : float;
  mutable jitter : float;  (* uniform [0, jitter) extra ms *)
  mutable spike : float;  (* fixed extra ms *)
}

let create rng =
  {
    rng;
    partitions = [];
    gray = Hashtbl.create 8;
    burst = None;
    loss = 0.;
    duplicate = 0.;
    jitter = 0.;
    spike = 0.;
  }

(* Written so that NaN fails both checks: a NaN probability would never
   drop, and a NaN or infinite delay would park a message forever at the
   head of a time-ordered queue, stalling everything behind it. *)
let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Faults.apply: %s needs 0 <= p <= 1" what)

let check_ms what ms =
  if not (ms >= 0. && ms < Float.infinity) then
    invalid_arg (Printf.sprintf "Faults.apply: %s needs finite ms >= 0" what)

let apply t = function
  | Partition sites ->
      if sites = [] then invalid_arg "Faults.apply: empty partition";
      t.partitions <- Int_set.of_list sites :: t.partitions
  | Heal -> t.partitions <- []
  | Gray { from_site; to_site } -> Hashtbl.replace t.gray (from_site, to_site) ()
  | Gray_heal { from_site; to_site } -> Hashtbl.remove t.gray (from_site, to_site)
  | Burst_loss { p_enter; p_exit; loss_bad } ->
      check_prob "Burst_loss p_enter" p_enter;
      check_prob "Burst_loss p_exit" p_exit;
      check_prob "Burst_loss loss_bad" loss_bad;
      t.burst <- Some { p_enter; p_exit; loss_bad; bad = false }
  | Burst_end -> t.burst <- None
  | Loss p ->
      check_prob "Loss" p;
      t.loss <- p
  | Duplicate p ->
      check_prob "Duplicate" p;
      t.duplicate <- p
  | Jitter ms ->
      check_ms "Jitter" ms;
      t.jitter <- ms
  | Latency_spike ms ->
      check_ms "Latency_spike" ms;
      t.spike <- ms
  | Crash _ | Restart _ -> ()

type cause = [ `Partition | `Gray | `Burst | `Loss ]

let cause_name = function
  | `Partition -> "partition"
  | `Gray -> "gray"
  | `Burst -> "burst"
  | `Loss -> "loss"

type fate = Drop of cause | Once of float | Twice of float * float

let draw t p = p > 0. && Rng.float t.rng 1. < p

let cut t src dst =
  src <> dst
  && List.exists
       (fun set -> Int_set.mem src set <> Int_set.mem dst set)
       t.partitions

(* Advance the chain, then draw from the state we landed in. *)
let burst_drops t =
  match t.burst with
  | None -> false
  | Some b ->
      let p_flip = if b.bad then b.p_exit else b.p_enter in
      if Rng.float t.rng 1. < p_flip then b.bad <- not b.bad;
      b.bad && draw t b.loss_bad

let extra t = t.spike +. (if t.jitter > 0. then Rng.float t.rng t.jitter else 0.)

(* The draw order is part of the contract: every seeded scenario on
   either substrate replays from it. *)
let fate t ~src_site ~dst_site =
  if cut t src_site dst_site then Drop `Partition
  else if Hashtbl.mem t.gray (src_site, dst_site) then Drop `Gray
  else if burst_drops t then Drop `Burst
  else if draw t t.loss then Drop `Loss
  else
    let first = extra t in
    if draw t t.duplicate then Twice (first, extra t) else Once first

(* --- schedules --- *)

type driver = event -> unit

let sorted schedule =
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) schedule

let install engine driver schedule =
  List.iter
    (fun (time, event) ->
      if time < 0. then invalid_arg "Faults.install: negative event time";
      Engine.schedule engine ~delay:time (fun () -> driver event))
    (sorted schedule)

let churn rng ~victims ~start ~spacing ~downtime =
  if spacing < 0. then invalid_arg "Faults.churn: negative spacing";
  if downtime < 0. then invalid_arg "Faults.churn: negative downtime";
  let order = Array.of_list victims in
  Rng.shuffle rng order;
  let events = ref [] in
  Array.iteri
    (fun i victim ->
      let t_crash = start +. (float_of_int i *. spacing) in
      events := (t_crash +. downtime, Restart victim) :: (t_crash, Crash victim)
                :: !events)
    order;
  sorted !events
