(* Sans-IO scrape scheduler: the collection half of the telemetry plane.

   This module decides *when* to poll which target and *what* to do with
   the answers; the bytes are someone else's problem (Harness.Telemetry
   owns the socket and the codec — obs may not depend on the transport
   or protocol layers).  The protocol is deliberately loss-tolerant:
   requests are fire-and-forget with a per-request nonce, an unanswered
   nonce simply times out and counts, and the next interval retries from
   scratch — a scraper must never be able to hurt the fleet it
   watches. *)

type target = { addr : int; instance : string }

type request = { dst : int; nonce : int }

type inflight = { i_target : target; sent_at : float }

type t = {
  targets : target list;
  interval_ms : float;
  timeout_ms : float;
  store : Series.store;
  inflight : (int, inflight) Hashtbl.t;
  mutable next_nonce : int;
  mutable next_poll : float;  (* neg_infinity = poll on first tick *)
  mutable events : Trace.event list;  (* drained trace events, reversed *)
  mutable n_events : int;
  mutable polls : int;
  mutable responses : int;
  mutable timeouts : int;
  mutable last_seen : (string * float) list;  (* instance -> last response *)
}

let max_events = 65536

let create ~interval_ms ?(timeout_ms = 1000.) targets =
  if interval_ms <= 0. then
    invalid_arg "Obs.Scrape.create: interval_ms must be > 0";
  if timeout_ms <= 0. then
    invalid_arg "Obs.Scrape.create: timeout_ms must be > 0";
  {
    targets;
    interval_ms;
    timeout_ms;
    store = Series.store ();
    inflight = Hashtbl.create 16;
    next_nonce = 1;
    next_poll = neg_infinity;
    events = [];
    n_events = 0;
    polls = 0;
    responses = 0;
    timeouts = 0;
    last_seen = [];
  }

let store t = t.store
let polls t = t.polls
let responses t = t.responses
let timeouts t = t.timeouts
let pending t = Hashtbl.length t.inflight

let next_due t =
  (* The earlier of the next poll and the earliest in-flight expiry. *)
  Hashtbl.fold
    (fun _ i acc -> Float.min acc (i.sent_at +. t.timeout_ms))
    t.inflight t.next_poll

let expire t ~now =
  let dead =
    Hashtbl.fold
      (fun nonce i acc ->
        if now -. i.sent_at >= t.timeout_ms then nonce :: acc else acc)
      t.inflight []
  in
  List.iter
    (fun nonce ->
      Hashtbl.remove t.inflight nonce;
      t.timeouts <- t.timeouts + 1)
    dead

let tick t ~now =
  expire t ~now;
  if now >= t.next_poll then begin
    t.next_poll <-
      (if t.next_poll = neg_infinity then now +. t.interval_ms
       else
         (* Fixed cadence even when ticks arrive late; never schedule in
            the past. *)
         Float.max (t.next_poll +. t.interval_ms) (now +. (t.interval_ms /. 2.)));
    List.map
      (fun tgt ->
        let nonce = t.next_nonce in
        t.next_nonce <- t.next_nonce + 1;
        t.polls <- t.polls + 1;
        Hashtbl.replace t.inflight nonce { i_target = tgt; sent_at = now };
        { dst = tgt.addr; nonce })
      t.targets
  end
  else []

let retag instance (s : Metrics.sample) =
  { s with Metrics.labels = ("target", instance) :: s.labels }

let on_response t ~now ~nonce ~samples ~events =
  match Hashtbl.find_opt t.inflight nonce with
  | None -> false (* late, duplicated or forged: ignore *)
  | Some { i_target; _ } ->
      Hashtbl.remove t.inflight nonce;
      t.responses <- t.responses + 1;
      t.last_seen <-
        (i_target.instance, now)
        :: List.remove_assoc i_target.instance t.last_seen;
      Series.ingest t.store ~time:now
        (List.map (retag i_target.instance) samples);
      List.iter
        (fun e ->
          if t.n_events < max_events then begin
            t.events <- e :: t.events;
            t.n_events <- t.n_events + 1
          end)
        events;
      true

let last_seen t instance = List.assoc_opt instance t.last_seen

let events t = List.rev t.events

let take_events t =
  let evs = List.rev t.events in
  t.events <- [];
  t.n_events <- 0;
  evs
