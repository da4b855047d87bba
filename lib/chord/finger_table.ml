type peer = { id : Id.t; addr : int }

type t = {
  self : Id.t;
  entries : peer option array;
  mutable peers : peer array option;
      (* The distinct peers of [entries] in clockwise order from [self],
         built on demand and dropped when a slot's peer changes. *)
}

let slots_count = Id.bits

let create ~self = { self; entries = Array.make slots_count None; peers = None }

let self t = t.self
let slots _ = slots_count

let target t i =
  if i < 0 || i >= slots_count then invalid_arg "Finger_table.target";
  Id.add_pow2 t.self i

let same_peer a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Id.equal a.id b.id && a.addr = b.addr
  | _ -> false

let set t i p =
  if i < 0 || i >= slots_count then invalid_arg "Finger_table.set";
  if not (same_peer t.entries.(i) p) then begin
    t.entries.(i) <- p;
    t.peers <- None
  end

let get t i =
  if i < 0 || i >= slots_count then invalid_arg "Finger_table.get";
  t.entries.(i)

let fill_from t successor =
  for i = 0 to slots_count - 1 do
    t.entries.(i) <- Some (successor (target t i))
  done;
  t.peers <- None

(* Ids after [self] ascending, then ids up to and including [self]: the
   order of [Ring.between_oo ~low:self], so the peers inside (self, key)
   are always a prefix. *)
let clockwise t a b =
  match (Id.compare a.id t.self > 0, Id.compare b.id t.self > 0) with
  | true, false -> -1
  | false, true -> 1
  | _ -> Id.compare a.id b.id

let known_peers t =
  match t.peers with
  | Some a -> a
  | None ->
      (* A stable sort keeps slot order among equal ids, and the first
         slot's peer is the one kept. *)
      let sorted =
        List.stable_sort (clockwise t)
          (List.filter_map Fun.id (Array.to_list t.entries))
      in
      let distinct =
        List.fold_left
          (fun acc p ->
            match acc with
            | q :: _ when Id.equal q.id p.id -> acc
            | _ -> p :: acc)
          [] sorted
      in
      let a = Array.of_list (List.rev distinct) in
      t.peers <- Some a;
      a

let closest_preceding t ?(extra = []) key =
  let inside low p = Ring.between_oo ~low ~high:key p.id in
  let peers = known_peers t in
  (* Bisect for the end of the prefix inside (self, key). *)
  let lo = ref 0 and hi = ref (Array.length peers) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if inside t.self peers.(mid) then lo := mid + 1 else hi := mid
  done;
  let best = if !lo = 0 then None else Some peers.(!lo - 1) in
  (* [extra] is scanned linearly; only a strictly closer peer wins. *)
  List.fold_left
    (fun best p ->
      if not (inside t.self p) then best
      else
        match best with
        | Some b when not (inside b.id p) -> best
        | _ -> Some p)
    best extra
