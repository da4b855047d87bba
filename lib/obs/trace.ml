type id = int

let none = 0

type kind =
  | Send
  | Enqueue
  | Relay
  | Cache_hit
  | Trigger_match
  | Deliver
  | Drop of string
  | Op of { op : string; parent : id }
  | Note of string
  | Done of string

type event = { trace : id; time : float; site : int; kind : kind }

type t = {
  ring : event array;  (* zero capacity <=> disabled *)
  mutable write : int;  (* next slot, monotonically increasing *)
  mutable next_id : int;
}

let dummy = { trace = none; time = 0.; site = -1; kind = Send }

let disabled = { ring = [||]; write = 0; next_id = 1 }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be > 0";
  { ring = Array.make capacity dummy; write = 0; next_id = 1 }

let enabled t = Array.length t.ring > 0

let start t =
  if not (enabled t) then none
  else begin
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    id
  end

let record t trace ~time ~site kind =
  if trace <> none && enabled t then begin
    let n = Array.length t.ring in
    t.ring.(t.write mod n) <- { trace; time; site; kind };
    t.write <- t.write + 1
  end

let started t = t.next_id - 1
let recorded t = t.write

let events ?trace t =
  let n = Array.length t.ring in
  if n = 0 then []
  else begin
    let live = min t.write n in
    let first = t.write - live in
    let out = ref [] in
    for i = first + live - 1 downto first do
      let e = t.ring.(i mod n) in
      match trace with
      | Some id when e.trace <> id -> ()
      | _ -> out := e :: !out
    done;
    !out
  end

type summary = {
  s_trace : id;
  sends : int;
  hops : int;
  relays : int;
  delivers : int;
  drops : int;
  drop_causes : string list;
  first_time : float;
  last_time : float;
}

let summaries t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun e ->
      let s =
        match Hashtbl.find_opt tbl e.trace with
        | Some s -> s
        | None ->
            {
              s_trace = e.trace;
              sends = 0;
              hops = 0;
              relays = 0;
              delivers = 0;
              drops = 0;
              drop_causes = [];
              first_time = e.time;
              last_time = e.time;
            }
      in
      let s =
        { s with first_time = Float.min s.first_time e.time;
                 last_time = Float.max s.last_time e.time }
      in
      let s =
        match e.kind with
        | Send -> { s with sends = s.sends + 1 }
        | Enqueue -> { s with hops = s.hops + 1 }
        | Relay -> { s with relays = s.relays + 1 }
        | Cache_hit | Trigger_match | Op _ | Note _ | Done _ -> s
        | Deliver -> { s with delivers = s.delivers + 1 }
        | Drop cause ->
            { s with drops = s.drops + 1; drop_causes = s.drop_causes @ [ cause ] }
      in
      Hashtbl.replace tbl e.trace s)
    (events t);
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b -> compare a.s_trace b.s_trace)

let orphans t =
  summaries t
  |> List.filter (fun s ->
         s.delivers = 0 && s.drops = 0
         && s.sends > 0 (* evicted history is incomplete, not orphaned *))

(* --- control-plane operations --- *)

type op = { o_id : id; mutable o_open : bool }

let null_op = { o_id = none; o_open = false }

let open_op t ?(parent = none) ~time name =
  let id = start t in
  if id = none then null_op
  else begin
    record t id ~time ~site:0 (Op { op = name; parent });
    { o_id = id; o_open = true }
  end

let op_id o = o.o_id
let note t o ~time text =
  if o.o_open then record t o.o_id ~time ~site:0 (Note text)

let close_op t ?(status = "ok") ~time o =
  if o.o_open then begin
    o.o_open <- false;
    record t o.o_id ~time ~site:0 (Done status)
  end

let durations_ms ?op t =
  let opened = Hashtbl.create 256 in
  List.fold_left
    (fun acc e ->
      match e.kind with
      | Op o when Option.fold ~none:true ~some:(String.equal o.op) op ->
          Hashtbl.replace opened e.trace e.time;
          acc
      | Done _ -> (
          match Hashtbl.find_opt opened e.trace with
          | Some t0 -> (e.time -. t0) :: acc
          | None -> acc)
      | _ -> acc)
    [] (events t)
  |> List.rev |> Array.of_list

let drain t =
  let evs = events t in
  if enabled t then begin
    (* Unlike [reset], draining must NOT reset [next_id]: ids stay unique
       across drains so a collector scraping periodically never sees two
       distinct packets share an id. *)
    Array.fill t.ring 0 (Array.length t.ring) dummy;
    t.write <- 0
  end;
  evs

(* --- cross-process assembly ---

   Each daemon drains its own ring; the collector concatenates the drains
   and joins them on the trace id carried in packet bytes 28–35
   (Wire.Layout.off_trace).  Within one trace, events are ordered by
   timestamp (daemon clocks are close enough on one host; ties broken by
   site then kind) — the result reads as the packet's causal path across
   the fleet. *)

type tree = {
  a_trace : id;
  a_events : event list;  (** time-ordered across all sites *)
  a_sites : int list;  (** distinct sites touched, in first-seen order *)
  a_terminal : bool;  (** a Deliver or Drop is present *)
}

let kind_rank = function
  | Send -> 0
  | Enqueue -> 1
  | Relay -> 2
  | Cache_hit -> 3
  | Trigger_match -> 4
  | Deliver -> 5
  | Drop _ -> 6
  | Op _ -> 7
  | Note _ -> 8
  | Done _ -> 9

let assemble evs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.trace <> none then
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl e.trace) in
        Hashtbl.replace tbl e.trace (e :: prev))
    evs;
  Hashtbl.fold
    (fun trace rev acc ->
      let ordered =
        List.stable_sort
          (fun a b ->
            match compare a.time b.time with
            | 0 -> (
                match compare (kind_rank a.kind) (kind_rank b.kind) with
                | 0 -> compare a.site b.site
                | c -> c)
            | c -> c)
          (List.rev rev)
      in
      let sites =
        List.fold_left
          (fun seen e -> if List.mem e.site seen then seen else e.site :: seen)
          [] ordered
        |> List.rev
      in
      let terminal =
        List.exists
          (fun e -> match e.kind with Deliver | Drop _ -> true | _ -> false)
          ordered
      in
      { a_trace = trace; a_events = ordered; a_sites = sites;
        a_terminal = terminal }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.a_trace b.a_trace)

let kind_to_string = function
  | Send -> "send"
  | Enqueue -> "enqueue"
  | Relay -> "relay"
  | Cache_hit -> "cache_hit"
  | Trigger_match -> "trigger_match"
  | Deliver -> "deliver"
  | Drop cause -> "drop:" ^ cause
  | Op { op; _ } -> "op:" ^ op
  | Note text -> "note:" ^ text
  | Done status -> "done:" ^ status

let reset t =
  if enabled t then begin
    Array.fill t.ring 0 (Array.length t.ring) dummy;
    t.write <- 0;
    t.next_id <- 1
  end
