(* The sans-IO end host: every host-side rule of the paper, once, as a
   state value plus [step].  The simulator's [Host] and the wire's
   [Transport.Client] only translate I/O, clocks and timers. *)

type config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

let default_refresh_period_ms = Trigger.default_lifetime_ms /. 3.
let attempt_timeout_ms = 250.
let max_attempts = 5
let backoff_base_ms = 50.
let backoff_cap_ms = 2_000.
let jitter = 0.2
let max_backoff_ms = backoff_cap_ms *. (1. +. jitter)

type note =
  | Acked of { trigger : Trigger.t; server : Packet.addr }
  | Refresh_sent of { trigger : Trigger.t; dst : Packet.addr; attempt : int }
  | Rehomed of { trigger : Trigger.t; stale : Packet.addr }
  | Gave_up of Trigger.t

type event =
  | Frame of Message.t
  | Tick
  | Insert of { trigger : Trigger.t; sync : bool }
  | Remove of Trigger.t
  | Send_packet of Packet.t
  | Move of Packet.addr

type effect =
  | Send of Packet.addr * Message.t
  | Deliver of { stack : Packet.stack; payload : string; trace : int }
  | Note of note
  | Set_timer of float

type binding = {
  mutable trigger : Trigger.t;
  mutable token : string option;  (* challenge response, once earned *)
  mutable last_ack : float;  (* latest Insert_ack, or the insert time *)
  mutable sent_at : float;  (* latest Insert send *)
  mutable due : float;  (* next Insert send: refresh or retry *)
  mutable misses : int;  (* unacked sends in the open round; 0 = closed *)
  mutable sync : bool;  (* a blocking caller awaits this round *)
  mutable span : Obs.Trace.op;
}

type cache_entry = { server : Packet.addr; expires : float }

type t = {
  cfg : config;
  rng : Rng.t;
  spans : Obs.Trace.t;
  mutable addr : Packet.addr;
  gateways : Packet.addr array;
  mutable gw : int;
  mutable rotated_at : float;
  mutable bindings : binding list;  (* newest first *)
  cache : (string, cache_entry) Hashtbl.t;  (* k-bit prefix -> server *)
  detours : (string, float * Obs.Trace.op) Hashtbl.t;
      (* gateway detours awaiting Cache_info: since, first-packet operation *)
  mutable now : float;
  mutable out : effect list;  (* this step's effects, newest first *)
}

let create ?(spans = Obs.Trace.disabled) ~config ~rng ~addr ~gateways () =
  if gateways = [] then invalid_arg "Endhost.create: need at least one gateway";
  { cfg = config; rng; spans; addr; gateways = Array.of_list gateways; gw = 0;
    rotated_at = Float.neg_infinity; bindings = []; cache = Hashtbl.create 16;
    detours = Hashtbl.create 8; now = Float.neg_infinity; out = [] }

let addr t = t.addr
let gateway t = t.gateways.(t.gw)
let triggers t = List.map (fun b -> b.trigger) t.bindings
let emit t e = t.out <- e :: t.out
let note t n = emit t (Note n)
let finish t ?status sp = Obs.Trace.close_op t.spans ?status ~time:t.now sp
let annotate t sp fmt =
  if Obs.Trace.enabled t.spans then
    Printf.ksprintf (Obs.Trace.note t.spans sp ~time:t.now) fmt
  else Printf.ikfprintf ignore () fmt
let prefix_key id = String.sub (Id.to_raw_string id) 0 (Id.prefix_bits / 8)

let cached_server t ~now id =
  match Hashtbl.find_opt t.cache (prefix_key id) with
  | Some e when e.expires > now -> Some e.server
  | _ -> None

(* The cached server for [id]'s prefix, else the current gateway. *)
let route t id =
  match cached_server t ~now:t.now id with Some s -> s | None -> gateway t

let find_binding t trigger =
  List.find_opt (fun b -> Trigger.same_binding b.trigger trigger) t.bindings

(* Jittered exponential backoff after the [misses]-th unacked send. *)
let backoff t ~misses =
  let nominal =
    Float.min backoff_cap_ms
      (backoff_base_ms *. (2. ** float_of_int (Int.min (misses - 1) 8)))
  in
  Rng.float_in t.rng (nominal *. (1. -. jitter)) (nominal *. (1. +. jitter))

(* --- gateways and the cache --- *)

(* Detours in flight went through the old gateway: they end unresolved. *)
let rotate t =
  t.gw <- (t.gw + 1) mod Array.length t.gateways;
  t.rotated_at <- t.now;
  Hashtbl.iter (fun _ (_, sp) -> finish t ~status:"timeout" sp) t.detours;
  Hashtbl.reset t.detours

(* Silent since [since] for longer than the grace period.  Rotations are
   at least a refresh period apart, so overdue bindings move the gateway
   once per round, not once each. *)
let overdue t since =
  t.now -. since > t.cfg.ack_grace_ms
  && t.now -. t.rotated_at >= t.cfg.refresh_period_ms

let learn t id server =
  let k = prefix_key id in
  Hashtbl.replace t.cache k { server; expires = t.now +. t.cfg.cache_ttl_ms };
  Option.iter
    (fun (_, sp) ->
      Hashtbl.remove t.detours k;
      finish t sp)
    (Hashtbl.find_opt t.detours k)

(* --- refresh rounds --- *)

let open_round t b op =
  finish t ~status:"timeout" b.span;
  b.misses <- 0;
  b.span <- Obs.Trace.open_op t.spans ~time:t.now op

let send_insert t b =
  let dst = route t b.trigger.Trigger.id in
  emit t (Send (dst, Message.Insert { trigger = b.trigger; token = b.token }));
  dst

(* One attempt of the open round: the give-up, re-home and rotation
   rules, then the Insert, then the retry deadline. *)
let attempt ?(noted = true) t b =
  let id = b.trigger.Trigger.id in
  if b.sync && b.misses >= max_attempts then begin
    b.sync <- false;
    rotate t;
    note t (Gave_up b.trigger)
  end;
  (match cached_server t ~now:t.now id with
  | Some stale when b.misses >= 2 ->
      Hashtbl.remove t.cache (prefix_key id);
      annotate t b.span "two misses at addr=%d; re-home" stale;
      note t (Rehomed { trigger = b.trigger; stale })
  | _ -> ());
  if overdue t b.last_ack then begin
    rotate t;
    annotate t b.span "ack overdue; rotate to gateway addr=%d" (gateway t)
  end;
  if b.misses > 0 then annotate t b.span "retry %d" b.misses;
  let dst = send_insert t b in
  if noted then
    note t (Refresh_sent { trigger = b.trigger; dst; attempt = b.misses + 1 });
  b.misses <- b.misses + 1;
  b.sent_at <- t.now;
  b.due <- t.now +. attempt_timeout_ms +. backoff t ~misses:b.misses

(* An API insert or a move: a fresh round, its first send unnoted. *)
let reinsert t b =
  open_round t b "i3.trigger_insert";
  attempt ~noted:false t b

let run_due t =
  List.iter
    (fun b ->
      if b.due <= t.now then begin
        if b.misses = 0 then open_round t b "i3.trigger_refresh";
        attempt t b
      end)
    t.bindings

let on_ack t trigger server =
  Option.iter
    (fun b ->
      b.last_ack <- t.now;
      b.misses <- 0;
      b.sync <- false;
      b.due <- b.sent_at +. t.cfg.refresh_period_ms;
      finish t b.span;
      learn t trigger.Trigger.id server;
      note t (Acked { trigger = b.trigger; server }))
    (find_binding t trigger)

(* Only answer challenges for triggers we actually requested: one for a
   trigger somebody else pointed at us is ignored — that is the
   reflection defense (Sec. IV-J3). *)
let on_challenge t trigger token =
  Option.iter
    (fun b ->
      b.token <- Some token;
      annotate t b.span "challenged; re-insert";
      ignore (send_insert t b))
    (find_binding t trigger)

let insert t trigger ~sync =
  let b =
    match find_binding t trigger with
    | Some b -> b
    | None ->
        let now = t.now in
        let b =
          { trigger; token = None; last_ack = now; sent_at = now; due = now;
            misses = 0; sync; span = Obs.Trace.null_op }
        in
        t.bindings <- b :: t.bindings;
        b
  in
  b.sync <- sync;
  reinsert t b

let remove t trigger =
  Option.iter
    (fun b ->
      t.bindings <- List.filter (fun b' -> b' != b) t.bindings;
      finish t ~status:"error:removed" b.span)
    (find_binding t trigger);
  emit t (Send (route t trigger.Trigger.id, Message.Remove { trigger }))

let move t addr =
  let old = t.addr in
  t.addr <- addr;
  let rewrite = function Packet.Saddr a when a = old -> Packet.Saddr addr | e -> e in
  List.iter
    (fun b ->
      let stack = List.map rewrite b.trigger.Trigger.stack in
      b.trigger <- Trigger.make ~id:b.trigger.Trigger.id ~stack ~owner:addr;
      b.token <- None;
      finish t ~status:"error:moved" b.span;
      reinsert t b;
      annotate t b.span "re-insert after move")
    t.bindings

(* --- data --- *)

(* First packet toward an uncached prefix: through the gateway with the
   refreshing flag, so the responsible server reports itself.  A detour
   left unanswered past the grace period means the gateway is dead. *)
let detour t (p : Packet.t) head =
  let k = prefix_key head in
  (match Hashtbl.find_opt t.detours k with
  | Some (since, _) when overdue t since -> rotate t
  | _ -> ());
  if not (Hashtbl.mem t.detours k) then begin
    let sp =
      Obs.Trace.open_op t.spans ~parent:p.trace ~time:t.now "i3.first_packet"
    in
    annotate t sp "uncached prefix; via gateway addr=%d" (gateway t);
    Hashtbl.add t.detours k (t.now, sp)
  end;
  emit t (Send (gateway t, Message.Data { p with refresh = true }))

let send_packet t (p : Packet.t) =
  let p = { p with sender = Some t.addr } in
  match p.stack with
  | Packet.Saddr a :: stack ->
      let payload = Packet.payload_string p in
      emit t (Send (a, Message.Deliver { stack; payload; trace = p.trace }))
  | Packet.Sid head :: _ -> (
      match cached_server t ~now:t.now head with
      | Some server -> emit t (Send (server, Message.Data p))
      | None -> detour t p head)
  | [] -> invalid_arg "Endhost.step: empty stack"

(* --- the state machine --- *)

let dispatch t = function
  | Tick -> ()
  | Frame (Message.Insert_ack { trigger; server }) -> on_ack t trigger server
  | Frame (Message.Challenge { trigger; token }) -> on_challenge t trigger token
  | Frame (Message.Cache_info { prefix; server }) -> learn t prefix server
  | Frame (Message.Deliver { stack; payload; trace }) ->
      emit t (Deliver { stack; payload; trace })
  | Frame _ -> (* server-bound traffic; hosts ignore it *) ()
  | Insert { trigger; sync } -> insert t trigger ~sync
  | Remove trigger -> remove t trigger
  | Send_packet p -> send_packet t p
  | Move addr -> move t addr

let step t ~now event =
  t.now <- Float.max t.now now;
  dispatch t event;
  run_due t;
  let effects = List.rev t.out in
  t.out <- [];
  if t.bindings = [] then effects
  else
    let next = List.fold_left (fun m b -> Float.min m b.due) infinity t.bindings in
    effects @ [ Set_timer next ]
