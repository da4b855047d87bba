(* The paper's prefix-keyed hash table (Sec. IV-A, DESIGN.md §3).

   Layout.  Every identifier that can match a packet shares the packet's
   first k = 128 bits, so the table hashes on that prefix alone.  A
   bucket holds one group per full identifier, sorted by id, and a group
   lists its bindings newest first (a multicast group is one group with
   many entries).  A match scans the packet's bucket; in practice that is
   one group, and more only for anycast and server-selection groups.

   Matching (Sec. II-B).  The live group with the longest common prefix
   wins, and among equals the smaller id, which comes first in the
   bucket.  Scans prune the dead entries they meet and drop a group, or a
   bucket, left empty.

   Expiry is lazy.  Each stored entry is its own item in one min-heap,
   ordered by [due], which is never later than the entry's [expires].  A
   refresh moves only [expires]; [expire] pops due items, re-queues an
   entry whose deadline has moved, and drops one that is really past
   due.  Removed and pruned entries mark themselves unstored, and their
   items pop as no-ops.  Once those stale items outnumber the table the
   heap is rebuilt from the stored entries, so it holds at most
   2·size + 64 items after every [expire] and removal. *)

type entry = {
  trigger : Trigger.t;
  mutable expires : float;
  mutable due : float; (* this entry's heap key; <= [expires] *)
  mutable stored : bool; (* false once removed or pruned *)
}

type group = { gid : Id.t; mutable entries : entry list (* newest first *) }
type bucket = { mutable groups : group list (* sorted by [gid] *) }

(* Ids keyed by their k-bit prefix: two ids are equal keys iff they share
   the first 128 bits.  The hash mixes both 64-bit words of the prefix
   with a multiplier and keeps the well-mixed high half. *)
module Prefix = Hashtbl.Make (struct
  type t = Id.t

  let word id i = String.get_int64_le (Id.to_raw_string id) i

  let equal a b =
    Int64.equal (word a 0) (word b 0) && Int64.equal (word a 8) (word b 8)

  let hash id =
    let k = 0x9E3779B97F4A7C15L in
    let x = Int64.(mul (logxor (word id 0) (mul (word id 8) k)) k) in
    Int64.to_int (Int64.shift_right_logical x 32)
end)

type t = {
  buckets : bucket Prefix.t;
  mutable count : int;
  mutable heap : entry Heap.t;
}

let by_due a b = Float.compare a.due b.due

let create () =
  { buckets = Prefix.create 64; count = 0; heap = Heap.create ~cmp:by_due }

let clear t =
  Prefix.reset t.buckets;
  t.count <- 0;
  t.heap <- Heap.create ~cmp:by_due

let size t = t.count
let heap_length t = Heap.size t.heap

let iter_entries t f =
  Prefix.iter
    (fun _ b -> List.iter (fun g -> List.iter f g.entries) b.groups)
    t.buckets

let iter t f = iter_entries t (fun e -> f e.trigger ~expires:e.expires)

(* A [List.filter] predicate that unstores the entries it drops. *)
let keep_unless t dead e =
  let drop = dead e in
  if drop then begin
    e.stored <- false;
    t.count <- t.count - 1
  end;
  not drop

(* Drop the bucket's emptied groups, and the bucket once none is left. *)
let tidy t id b =
  b.groups <- List.filter (fun g -> g.entries <> []) b.groups;
  if b.groups = [] then Prefix.remove t.buckets id

(* Rebuild the heap from the stored entries once stale items outnumber
   them. *)
let compact t =
  if Heap.size t.heap > (2 * t.count) + 64 then begin
    let stored = ref [] in
    iter_entries t (fun e -> stored := e :: !stored);
    t.heap <- Heap.of_array ~cmp:by_due (Array.of_list !stored)
  end

let find_group id groups = List.find_opt (fun g -> Id.equal g.gid id) groups

let insert t ~now ~expires trigger =
  (* Total by design (replica/cache re-inserts race the clock): an entry
     already past its deadline — or carrying a NaN from a hostile wire
     lifetime — is silently dropped, never stored.  [>] rather than
     [not (<=)] so NaN fails the guard too. *)
  if expires > now then begin
    let id = trigger.Trigger.id in
    let b =
      match Prefix.find t.buckets id with
      | b -> b
      | exception Not_found ->
          let b = { groups = [] } in
          Prefix.add t.buckets id b;
          b
    in
    let g =
      match find_group id b.groups with
      | Some g -> g
      | None ->
          let g = { gid = id; entries = [] } in
          b.groups <-
            List.merge (fun x y -> Id.compare x.gid y.gid) [ g ] b.groups;
          g
    in
    match
      List.find_opt (fun e -> Trigger.same_binding e.trigger trigger) g.entries
    with
    | Some e -> if expires > e.expires then e.expires <- expires
    | None ->
        let e = { trigger; expires; due = expires; stored = true } in
        g.entries <- e :: g.entries;
        t.count <- t.count + 1;
        Heap.add t.heap e
  end

(* Remove the entries of group [id] satisfying [pred]; the number removed. *)
let drop_where t id pred =
  match Prefix.find t.buckets id with
  | exception Not_found -> 0
  | b -> (
      match find_group id b.groups with
      | None -> 0
      | Some g ->
          let before = t.count in
          g.entries <- List.filter (keep_unless t pred) g.entries;
          if g.entries = [] then tidy t id b;
          before - t.count)

let remove_where t id pred =
  let n = drop_where t id pred in
  compact t;
  n

let remove t trigger =
  remove_where t trigger.Trigger.id (fun e ->
      Trigger.same_binding e.trigger trigger)
  > 0

let remove_matching t ~id ~target =
  remove_where t id (fun e ->
      match Trigger.target_id e.trigger with
      | Some tid -> Id.equal tid target
      | None -> false)

let rec all_live now = function
  | [] -> true
  | e :: rest -> e.expires > now && all_live now rest

(* Drop [g]'s dead entries; true if a live one remains. *)
let prune t ~now g =
  if not (all_live now g.entries) then
    g.entries <-
      List.filter (keep_unless t (fun e -> e.expires <= now)) g.entries;
  g.entries <> []

(* Prune every group of [id]'s bucket [b]; the groups left. *)
let live_groups t ~now id b =
  let emptied =
    List.fold_left (fun n g -> if prune t ~now g then n else n + 1) 0 b.groups
  in
  if emptied > 0 then tidy t id b;
  b.groups

let triggers g = List.map (fun e -> e.trigger) g.entries

let find_matches t ~now pid =
  match Prefix.find t.buckets pid with
  | exception Not_found -> []
  | { groups = [ g ] } as b ->
      (* The common case: one identifier under this prefix. *)
      if prune t ~now g then triggers g
      else begin
        tidy t pid b;
        []
      end
  | b -> (
      match live_groups t ~now pid b with
      | [] -> []
      | g :: rest ->
          let best, _ =
            List.fold_left
              (fun (best, len) g ->
                let l = Id.common_prefix_len g.gid pid in
                if l > len then (g, l) else (best, len))
              (g, Id.common_prefix_len g.gid pid)
              rest
          in
          triggers best)

let bucket_entries t ~now pid =
  match Prefix.find t.buckets pid with
  | exception Not_found -> []
  | b ->
      List.concat_map
        (fun g -> List.map (fun e -> (e.trigger, e.expires -. now)) g.entries)
        (live_groups t ~now pid b)

let bucket_of t ~now pid = List.map fst (bucket_entries t ~now pid)

let expire t ~now =
  let dropped = ref 0 in
  let rec loop () =
    match Heap.peek t.heap with
    | Some e when e.due <= now ->
        ignore (Heap.pop t.heap);
        if e.stored then
          if e.expires <= now then
            dropped := !dropped + drop_where t e.trigger.Trigger.id (( == ) e)
          else begin
            (* Refreshed since it was queued: wait for the new deadline. *)
            e.due <- e.expires;
            Heap.add t.heap e
          end;
        loop ()
    | _ -> ()
  in
  loop ();
  compact t;
  !dropped
