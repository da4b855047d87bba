type t = { ids : Id.t array }

let create ids =
  let module S = Set.Make (Id) in
  let set = Array.fold_left (fun acc i -> S.add i acc) S.empty ids in
  if S.is_empty set then invalid_arg "Oracle.create: empty ring";
  { ids = Array.of_list (S.elements set) }

let random rng ~n =
  if n <= 0 then invalid_arg "Oracle.random: n must be positive";
  let tbl = Hashtbl.create (2 * n) in
  while Hashtbl.length tbl < n do
    let id = Id.routing_key (Id.random rng) in
    if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id ()
  done;
  create (Array.of_seq (Hashtbl.to_seq_keys tbl))

let size t = Array.length t.ids
let id t i = t.ids.(i)

(* First index with ids.(i) >= key, or [size] if none. *)
let lower_bound t key =
  let lo = ref 0 and hi = ref (Array.length t.ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Id.compare t.ids.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let successor_index t key =
  let i = lower_bound t key in
  if i = Array.length t.ids then 0 else i

let index_of t key =
  let i = lower_bound t key in
  if i < Array.length t.ids && Id.equal t.ids.(i) key then Some i else None

let responsible t i3_id = successor_index t (Id.routing_key i3_id)

let successor_of t i = (i + 1) mod size t
let predecessor_of t i = (i + size t - 1) mod size t
let nth_successor t i k = (i + k) mod size t

let finger t i e = successor_index t (Id.add_pow2 (id t i) e)
let finger_at t i offset = successor_index t (Id.add (id t i) offset)

let converged nodes =
  nodes <> []
  &&
  let ring = create (Array.of_list (List.map fst nodes)) in
  List.for_all
    (fun (self, succ) ->
      match succ with
      | None -> size ring = 1
      | Some s ->
          Id.equal s (id ring (successor_of ring (successor_index ring self))))
    nodes
