type verdict = Ok | Degraded | Violated

let verdict_to_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Violated -> "violated"

let severity = function Ok -> 0 | Degraded -> 1 | Violated -> 2
let worst a b = if severity a >= severity b then a else b

type signal =
  | Latest of { metric : string; labels : (string * string) list }
  | Rate of {
      metric : string;
      labels : (string * string) list;
      window_ms : float;
    }
  | Ratio of {
      num : string;
      num_labels : (string * string) list;
      den : string;
      den_labels : (string * string) list;
      window_ms : float;
    }

type bound =
  | At_least of { ok : float; degraded : float }
  | At_most of { ok : float; degraded : float }

type rule = { rule : string; signal : signal; bound : bound }

type evaluation = {
  rule : string;
  at : float;
  value : float option;
  verdict : verdict;
}

type t = {
  rules : rule list;
  store : Series.store;
  registry : Metrics.t;
  history : (float * verdict) array;  (* ring *)
  mutable h_write : int;
  mutable last_eval : evaluation list;
  mutable prev_overall : verdict;
  mutable hook : (evaluation list -> unit) option;
}

let validate r =
  match r.bound with
  | At_least { ok; degraded } when ok < degraded ->
      invalid_arg
        (Printf.sprintf "Obs.Health: rule %S: At_least needs ok >= degraded"
           r.rule)
  | At_most { ok; degraded } when ok > degraded ->
      invalid_arg
        (Printf.sprintf "Obs.Health: rule %S: At_most needs ok <= degraded"
           r.rule)
  | _ -> ()

let create ?store ?(history_capacity = 8192) ~rules registry =
  List.iter validate rules;
  if history_capacity <= 0 then
    invalid_arg "Obs.Health.create: history_capacity must be > 0";
  {
    rules;
    store =
      (match store with
      | Some s -> s
      | None -> Series.store ~capacity:1024 ());
    registry;
    history = Array.make history_capacity (0., Ok);
    h_write = 0;
    last_eval = [];
    prev_overall = Ok;
    hook = None;
  }

let rules t = t.rules
let store t = t.store
let registry t = t.registry
let on_violation t f = t.hook <- Some f

let signal_value t ~time = function
  | Latest { metric; labels } -> (
      match Series.get t.store ~labels metric with
      | None -> None
      | Some s -> Option.map (fun p -> p.Series.value) (Series.latest s))
  | Rate { metric; labels; window_ms } -> (
      match Series.get t.store ~labels metric with
      | None -> None
      | Some s -> Series.rate_per_sec s ~now:time ~window_ms)
  | Ratio { num; num_labels; den; den_labels; window_ms } -> (
      match
        ( Series.get t.store ~labels:num_labels num,
          Series.get t.store ~labels:den_labels den )
      with
      | Some sn, Some sd -> (
          match
            ( Series.delta_over sn ~now:time ~window_ms,
              Series.delta_over sd ~now:time ~window_ms )
          with
          | Some dn, Some dd when dd > 0. -> Some (dn /. dd)
          | _ -> None)
      | _ -> None)

let judge t ~time r =
  match signal_value t ~time r.signal with
  | None -> (None, Ok)
  | Some v ->
      let verdict =
        match r.bound with
        | At_least { ok; degraded } ->
            if v >= ok then Ok else if v >= degraded then Degraded else Violated
        | At_most { ok; degraded } ->
            if v <= ok then Ok else if v <= degraded then Degraded else Violated
      in
      (Some v, verdict)

let overall evals =
  List.fold_left (fun acc e -> worst acc e.verdict) Ok evals

let evaluate t ~time =
  let evals =
    List.map
      (fun r ->
        let value, verdict = judge t ~time r in
        { rule = r.rule; at = time; value; verdict })
      t.rules
  in
  t.last_eval <- evals;
  let v = overall evals in
  let n = Array.length t.history in
  t.history.(t.h_write mod n) <- (time, v);
  t.h_write <- t.h_write + 1;
  (match (t.prev_overall, v) with
  | (Ok | Degraded), Violated -> (
      match t.hook with Some f -> f evals | None -> ())
  | _ -> ());
  t.prev_overall <- v;
  evals

let scrape t ~time =
  Series.scrape t.store ~time t.registry;
  evaluate t ~time

let ingest t ~time samples =
  Series.ingest t.store ~time samples;
  evaluate t ~time

let last t = t.last_eval

let history t =
  let n = Array.length t.history in
  let live = min t.h_write n in
  let first = t.h_write - live in
  let out = ref [] in
  for i = first + live - 1 downto first do
    out := t.history.(i mod n) :: !out
  done;
  !out

let counts t =
  List.fold_left
    (fun (ok, deg, vio) (_, v) ->
      match v with
      | Ok -> (ok + 1, deg, vio)
      | Degraded -> (ok, deg + 1, vio)
      | Violated -> (ok, deg, vio + 1))
    (0, 0, 0) (history t)

let first_breach_after t after =
  List.find_map
    (fun (at, v) -> if at >= after && v <> Ok then Some at else None)
    (history t)

let first_ok_after t after =
  List.find_map
    (fun (at, v) -> if at >= after && v = Ok then Some at else None)
    (history t)

let time_to_detect t ~fault_at =
  Option.map (fun at -> at -. fault_at) (first_breach_after t fault_at)

let time_to_recover t ~fault_at =
  Option.bind (first_breach_after t fault_at) (fun breach ->
      Option.map (fun at -> at -. fault_at) (first_ok_after t breach))
