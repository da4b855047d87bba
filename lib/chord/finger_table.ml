type peer = { id : Id.t; addr : int }

type t = {
  self : Id.t;
  entries : peer option array;
}

let slots_count = Id.bits

let create ~self = { self; entries = Array.make slots_count None }

let self t = t.self
let slots _ = slots_count

let target t i =
  if i < 0 || i >= slots_count then invalid_arg "Finger_table.target";
  Id.add_pow2 t.self i

let set t i p =
  if i < 0 || i >= slots_count then invalid_arg "Finger_table.set";
  t.entries.(i) <- p

let get t i =
  if i < 0 || i >= slots_count then invalid_arg "Finger_table.get";
  t.entries.(i)

let fill_from t successor =
  for i = 0 to slots_count - 1 do
    t.entries.(i) <- Some (successor (target t i))
  done

let closest_preceding t ?(extra = []) key =
  (* Linear scan, deliberately: see the module documentation. *)
  let best = ref None in
  let consider p =
    if Ring.between_oo ~low:t.self ~high:key p.id then
      match !best with
      | None -> best := Some p
      | Some b ->
          if Ring.between_oo ~low:b.id ~high:key p.id then best := Some p
  in
  Array.iter (function Some p -> consider p | None -> ()) t.entries;
  List.iter consider extra;
  !best

let known_peers t =
  let module S = Set.Make (struct
    type nonrec t = peer

    let compare a b = Id.compare a.id b.id
  end) in
  let set =
    Array.fold_left
      (fun acc -> function Some p -> S.add p acc | None -> acc)
      S.empty t.entries
  in
  (* Ascending clockwise from self: rotate the sorted list. *)
  let after, before =
    S.fold
      (fun p (after, before) ->
        if Id.compare p.id t.self > 0 then (p :: after, before)
        else (after, p :: before))
      set ([], [])
  in
  List.rev after @ List.rev before
