(* A probe flow as a value: payload format, seq counter, the set of
   delivered seqs and their arrival times.  The driver owns the clock
   and the network; this module only counts. *)

type t = {
  labels : (string * string) list;
  prefix : string;  (* "i3flow <name> " *)
  started : float;
  mutable stopped : float option;
  delivered : (int, unit) Hashtbl.t;
  mutable recv_times : float list;  (* newest first *)
  c_sent : Metrics.counter;
  c_received : Metrics.counter;
}

let sent_metric = "probe.sent"
let received_metric = "probe.received"

let create ~metrics ~name ~now =
  let labels = [ ("flow", name) ] in
  (* Two flows on one counter pair would each count the other's
     probes as sent. *)
  if Metrics.find metrics ~labels sent_metric <> None then
    invalid_arg ("Obs.Probe.create: duplicate flow " ^ name);
  {
    labels;
    prefix = "i3flow " ^ name ^ " ";
    started = now;
    stopped = None;
    delivered = Hashtbl.create 64;
    recv_times = [];
    c_sent = Metrics.counter metrics ~labels sent_metric;
    c_received = Metrics.counter metrics ~labels received_metric;
  }

let labels t = t.labels
let sent t = Metrics.counter_value t.c_sent
let received t = Hashtbl.length t.delivered

let next t =
  let seq = sent t in
  Metrics.incr t.c_sent;
  t.prefix ^ string_of_int seq

let on_receive t ~now payload =
  if String.starts_with ~prefix:t.prefix payload then
    let pl = String.length t.prefix in
    let digits = String.sub payload pl (String.length payload - pl) in
    match int_of_string_opt digits with
    | Some seq
      when seq >= 0 && seq < sent t
           && string_of_int seq = digits
           && not (Hashtbl.mem t.delivered seq) ->
        Hashtbl.replace t.delivered seq ();
        t.recv_times <- now :: t.recv_times;
        Metrics.incr t.c_received
    | _ -> ()

let stop t ~now = if t.stopped = None then t.stopped <- Some now

let delivery_ratio t =
  if sent t = 0 then 1. else float_of_int (received t) /. float_of_int (sent t)

let time_to_recovery t ~after =
  match List.filter (fun at -> at >= after) t.recv_times with
  | [] -> None
  | l -> Some (List.fold_left Float.min Float.infinity l -. after)

let longest_outage t ~now =
  let finish = Option.value t.stopped ~default:now in
  let marks = List.sort Float.compare (t.started :: finish :: t.recv_times) in
  let rec widest acc = function
    | a :: (b :: _ as rest) -> widest (Float.max acc (b -. a)) rest
    | [ _ ] | [] -> acc
  in
  widest 0. marks

let delivery_rule ~ok ~degraded t =
  (* Probes still in flight at the window's edge drag the ratio below 1
     even on a healthy path, so [ok] needs headroom under 1. *)
  {
    Health.rule = "delivery";
    signal =
      Health.Ratio
        {
          num = received_metric;
          num_labels = t.labels;
          den = sent_metric;
          den_labels = t.labels;
          window_ms = 2_000.;
        };
    bound = Health.At_least { ok; degraded };
  }
