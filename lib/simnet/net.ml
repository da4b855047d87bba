type addr = int

let pp_addr ppf a = Format.fprintf ppf "@%d" a

type 'msg endpoint = {
  mutable site : int;
  mutable handler : src:addr -> 'msg -> unit;
  mutable up : bool;
}

type outcome = [ `Enqueue | `Drop of string ]

(* Counters live in an {!Obs.Metrics} registry, keyed [net.<event>] with an
   instance label so several networks (data plane, control plane, tests)
   coexist in one registry without mixing counts. *)
type counters = {
  c_sent : Obs.Metrics.counter;
  c_delivered : Obs.Metrics.counter;
  c_duplicated : Obs.Metrics.counter;
  c_loss : Obs.Metrics.counter;
  c_burst : Obs.Metrics.counter;
  c_down : Obs.Metrics.counter;
  c_partition : Obs.Metrics.counter;
  c_gray : Obs.Metrics.counter;
}

type 'msg t = {
  engine : Engine.t;
  latency : int -> int -> float;
  label : string;
  metrics : Obs.Metrics.t;
  c : counters;
  mutable endpoints : 'msg endpoint array;
  mutable count : int;
  faults : Faults.t;
  mutable tap : (src:addr -> dst:addr -> 'msg -> unit) option;
  mutable observer : (src:addr -> dst:addr -> 'msg -> outcome -> unit) option;
}

let instances = ref 0

let make_counters metrics label =
  let counter ?(labels = []) name =
    Obs.Metrics.counter metrics ~labels:(("instance", label) :: labels) name
  in
  let drop cause = counter ~labels:[ ("cause", cause) ] "net.dropped" in
  {
    c_sent = counter "net.sent";
    c_delivered = counter "net.delivered";
    c_duplicated = counter "net.duplicated";
    c_loss = drop "loss";
    c_burst = drop "burst";
    c_down = drop "down";
    c_partition = drop "partition";
    c_gray = drop "gray";
  }

let create ?(metrics = Obs.Metrics.default) engine ~rng ~latency () =
  incr instances;
  let label = "net" ^ string_of_int !instances in
  {
    engine;
    latency;
    label;
    metrics;
    c = make_counters metrics label;
    endpoints = [||];
    count = 0;
    faults = Faults.create rng;
    tap = None;
    observer = None;
  }

let engine t = t.engine
let label t = t.label
let metrics t = t.metrics

let endpoint t a =
  if a < 0 || a >= t.count then invalid_arg "Net: unknown address";
  t.endpoints.(a)

let register t ~site handler =
  if t.count = Array.length t.endpoints then begin
    let ncap = max 16 (2 * t.count) in
    (* Each spare slot gets its own placeholder record: sharing one mutable
       record across slots would let a stray write through an aliased slot
       corrupt several endpoints at once. *)
    let bigger =
      Array.init ncap (fun i ->
          if i < t.count then t.endpoints.(i)
          else { site = -1; handler = (fun ~src:_ _ -> ()); up = false })
    in
    t.endpoints <- bigger
  end;
  t.endpoints.(t.count) <- { site; handler; up = true };
  t.count <- t.count + 1;
  t.count - 1

let set_handler t a h = (endpoint t a).handler <- h
let site t a = (endpoint t a).site
let move t a new_site = (endpoint t a).site <- new_site

let set_down t a = (endpoint t a).up <- false
let set_up t a = (endpoint t a).up <- true
let is_up t a = (endpoint t a).up

let set_tap t f = t.tap <- Some f
let set_observer t f = t.observer <- Some f

(* --- link-level faults --- *)

let apply t event = Faults.apply t.faults event

let driver ?(crash = fun _ -> ()) ?(restart = fun _ -> ()) t = function
  | Faults.Crash i -> crash i
  | Faults.Restart i -> restart i
  | event -> apply t event

(* --- sending --- *)

let observe t ~src ~dst msg outcome =
  match t.observer with Some f -> f ~src ~dst msg outcome | None -> ()

let deliver t ~src ~dst (d : 'msg endpoint) msg =
  if d.up then begin
    Obs.Metrics.incr t.c.c_delivered;
    (match t.tap with Some f -> f ~src ~dst msg | None -> ());
    d.handler ~src msg
  end
  else begin
    Obs.Metrics.incr t.c.c_down;
    observe t ~src ~dst msg (`Drop "down")
  end

let send t ~src ~dst msg =
  let s = endpoint t src and d = endpoint t dst in
  Obs.Metrics.incr t.c.c_sent;
  let drop counter cause =
    Obs.Metrics.incr counter;
    observe t ~src ~dst msg (`Drop cause)
  in
  if not s.up then drop t.c.c_down "down"
  else
    let schedule extra =
      Engine.schedule t.engine ~delay:(t.latency s.site d.site +. extra)
        (fun () -> deliver t ~src ~dst d msg)
    in
    match Faults.fate t.faults ~src_site:s.site ~dst_site:d.site with
    | Faults.Drop cause ->
        let counter =
          match cause with
          | `Partition -> t.c.c_partition
          | `Gray -> t.c.c_gray
          | `Burst -> t.c.c_burst
          | `Loss -> t.c.c_loss
        in
        drop counter (Faults.cause_name cause)
    | Faults.Once extra ->
        observe t ~src ~dst msg `Enqueue;
        schedule extra
    | Faults.Twice (extra, copy) ->
        observe t ~src ~dst msg `Enqueue;
        schedule extra;
        Obs.Metrics.incr t.c.c_duplicated;
        schedule copy

let endpoint_count t = t.count
