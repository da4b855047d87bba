module Oracle = Chord.Oracle

type t = {
  oracle : Oracle.t;
  degree : int; (* k = 2^digit_bits *)
  digit_bits : int; (* b: bits corrected per de Bruijn hop *)
  (* key (raw bytes) -> node index -> next node index, filled lazily from
     full [route] computations so per-server [next_hop] calls walk one
     coherent de Bruijn path instead of re-aligning at every hop (a real
     Koorde packet carries the imaginary identifier in its header; the
     memo plays that role for the oracle-backed simulation). *)
  next_memo : (string, (int, int) Hashtbl.t) Hashtbl.t;
}

let max_memo_keys = 4096

let log2_exact k =
  let rec go b p = if p = k then Some b else if p > k then None else go (b + 1) (p * 2) in
  go 0 1

let create ?(degree = 8) oracle =
  match log2_exact degree with
  | Some b when b >= 1 && b <= 8 ->
      { oracle; degree; digit_bits = b; next_memo = Hashtbl.create 64 }
  | _ -> invalid_arg "Koorde.Routing.create: degree must be 2^b, b in [1,8]"

let oracle t = t.oracle
let degree t = t.degree

(* The node whose clockwise arc [id m, id (succ m)) contains the imaginary
   identifier [i]: Koorde's "node imitating imaginary node i". *)
let host t i =
  let s = Oracle.successor_index t.oracle i in
  if Id.equal (Oracle.id t.oracle s) i then s else Oracle.predecessor_of t.oracle s

(* Best-aligned imaginary start for routing [key] from [start]: the largest
   tb with (256 - tb) divisible by digit_bits such that some identifier in
   [start]'s arc has the top tb bits of [key] as its low tb bits.  Starting
   there, every remaining hop is a clean shift-by-b-and-append, and after
   injecting all 256 - tb remaining bits the imaginary identifier equals
   [key] exactly.  Fewer remaining digits = fewer hops, hence "best". *)
let align t ~start ~key =
  let a = Oracle.id t.oracle start in
  let a' = Oracle.id t.oracle (Oracle.successor_of t.oracle start) in
  let arc = Id.distance_cw a a' in
  let rec choose j =
    let tb = Id.bits - (j * t.digit_bits) in
    if tb < 0 then None
    else
      let r = Id.shift_right key (Id.bits - tb) in
      (* (r - a) mod 2^tb: offset of the first arc id whose low tb bits
         equal r. *)
      let off =
        if tb = 0 then Id.zero
        else Id.shift_right (Id.shift_left (Id.sub r a) (Id.bits - tb)) (Id.bits - tb)
      in
      if Id.compare off arc < 0 then Some (tb, Id.add a off) else choose (j + 1)
  in
  choose 0

let route t ~start ~key =
  let o = t.oracle in
  let n = Oracle.size o in
  let target = Oracle.successor_index o key in
  if start = target then [ start ]
  else begin
    let path = ref [ start ] in
    let push node = if node <> List.hd !path then path := node :: !path in
    let guard = ref 0 in
    let bump () =
      incr guard;
      if !guard > n + Id.bits then
        invalid_arg "Koorde.Routing.route: hop budget exceeded"
    in
    (match align t ~start ~key with
    | None ->
        (* No aligned imaginary start fits the arc (only possible on
           degenerate rings): fall back to a plain successor walk. *)
        let cur = ref start in
        while !cur <> target do
          bump ();
          cur := Oracle.successor_of o !cur;
          push !cur
        done
    | Some (tb, i0) ->
        let m = ref start and i = ref i0 and consumed = ref tb in
        let finished = ref false in
        while not !finished do
          bump ();
          if !m = target then finished := true
          else if Oracle.successor_of o !m = target then begin
            (* The key lies on this node's successor arc — one hop done.
               (A real node checks key against its own successor id.) *)
            push target;
            finished := true
          end
          else if !consumed >= Id.bits then begin
            (* All digits injected: i = key and this node hosts it, so the
               responsible node is the next one clockwise (normally the
               successor-arc check above already fired). *)
            let nxt = Oracle.successor_of o !m in
            push nxt;
            m := nxt
          end
          else begin
            (* De Bruijn hop: shift-and-append the next b bits of the key,
               then move to the node hosting the new imaginary id.  The
               current node holds [i] on its arc, so [i'] lies in its
               de Bruijn image [k*m, k*succ(m) + k) — an interval every
               node keeps image fingers for (see {!candidate_count}), so
               the host is a direct neighbor: one physical hop per digit. *)
            let digit = Id.extract_bits key ~pos:!consumed ~len:t.digit_bits in
            let i' = Id.add (Id.shift_left !i t.digit_bits) (Id.of_int digit) in
            let h = host t i' in
            if h <> !m then push h;
            (* h = m: the image wrapped back onto our own arc (tiny rings
               only) — consume the digit in place, no physical hop. *)
            m := h;
            i := i';
            consumed := !consumed + t.digit_bits
          end
        done);
    List.rev !path
  end

let next_hop t ~current ~key =
  let target = Oracle.successor_index t.oracle key in
  if current = target then None
  else begin
    let kraw = Id.to_raw_string key in
    let tbl =
      match Hashtbl.find_opt t.next_memo kraw with
      | Some tbl -> tbl
      | None ->
          if Hashtbl.length t.next_memo >= max_memo_keys then
            Hashtbl.reset t.next_memo;
          let tbl = Hashtbl.create 8 in
          Hashtbl.add t.next_memo kraw tbl;
          tbl
    in
    match Hashtbl.find_opt tbl current with
    | Some _ as nxt -> nxt
    | None ->
        (* Keep the LAST occurrence's exit for nodes the path revisits
           (imaginary-id hosts can collide on a sparse ring): the last
           exit strictly advances along the path, so a walk following
           the memo always terminates at the target instead of looping
           on the revisit cycle. *)
        let rec fill = function
          | a :: (b :: _ as rest) ->
              Hashtbl.replace tbl a b;
              fill rest
          | _ -> ()
        in
        fill (route t ~start:current ~key);
        Hashtbl.find_opt tbl current
  end

(* Real nodes whose arcs intersect [node]'s de Bruijn image
   [k*id, k*succ_id]: the image fingers a node maintains so every digit
   injection is one direct hop.  The degree-k map stretches the node's
   arc k-fold, so the expected count is k + 1 regardless of ring size —
   Koorde's headline property, in expectation rather than worst case
   (an unusually wide arc hosts proportionally more image fingers). *)
let image_fingers t node =
  let o = t.oracle in
  let n = Oracle.size o in
  let a = Oracle.id o node in
  let a' = Oracle.id o (Oracle.successor_of o node) in
  let arc = Id.distance_cw a a' in
  (* arc * k wraps the whole circle when arc >= 2^(256-b): the image
     covers every node (only tiny rings get here). *)
  if
    n <= 1
    || Id.compare (Id.shift_right arc (Id.bits - t.digit_bits)) Id.zero > 0
  then n
  else begin
    let lo = Id.shift_left a t.digit_bits in
    let span = Id.shift_left arc t.digit_bits in
    let count = ref 1 in
    let cur = ref (host t lo) in
    let stop = ref false in
    while (not !stop) && !count < n do
      let nxt = Oracle.successor_of o !cur in
      if Id.compare (Id.distance_cw lo (Oracle.id o nxt)) span <= 0 then begin
        incr count;
        cur := nxt
      end
      else stop := true
    done;
    !count
  end

(* Forwarding candidates a node keeps live: its successor plus the image
   fingers.  Expected degree + 2, constant in the ring size. *)
let candidate_count t node = 1 + image_fingers t node

let state_bytes t node =
  (* candidates + the predecessor pointer every ring member keeps. *)
  Chord.Routing.entry_bytes * (1 + candidate_count t node)
