type event = { time : float; seq : int; action : unit -> unit }

type t = {
  heap : event Heap.t;
  mutable clock : float;
  mutable next_seq : int;
}

let cmp_event a b =
  match Float.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create () = { heap = Heap.create ~cmp:cmp_event; clock = 0.; next_seq = 0 }

let now t = t.clock

let schedule_at t ~time action =
  let time = Float.max time t.clock in
  Heap.add t.heap { time; seq = t.next_seq; action };
  t.next_seq <- t.next_seq + 1

let schedule t ~delay action =
  schedule_at t ~time:(t.clock +. Float.max 0. delay) action

type timer = { mutable cancelled : bool }

let every t ?phase ~period action =
  if period <= 0. then invalid_arg "Engine.every: period must be positive";
  let timer = { cancelled = false } in
  let rec tick () =
    if not timer.cancelled then begin
      action ();
      schedule t ~delay:period tick
    end
  in
  schedule t ~delay:(Option.value ~default:period phase) tick;
  timer

let cancel timer = timer.cancelled <- true

let pending t = Heap.size t.heap
let next_due t = Option.map (fun ev -> ev.time) (Heap.peek t.heap)

let step t =
  match Heap.pop t.heap with
  | None -> false
  | Some ev ->
      t.clock <- ev.time;
      ev.action ();
      true

let start_at t time =
  let delta = time -. t.clock in
  if delta > 0. then begin
    List.iter
      (fun ev -> Heap.add t.heap { ev with time = ev.time +. delta })
      (Heap.to_sorted_list t.heap);
    t.clock <- time
  end

let run t = while step t do () done

let run_until t limit =
  let continue = ref true in
  while !continue do
    match Heap.peek t.heap with
    | Some ev when ev.time <= limit -> ignore (step t)
    | _ -> continue := false
  done;
  t.clock <- Float.max t.clock limit

let run_for t d = run_until t (t.clock +. d)
