(* Differential tests for the prefix-keyed trigger table: it is raced
   against a plain list+hashtable implementation swept wholesale
   (embedded below as [Reference]) on random insert/refresh/remove/
   expire/match traces, plus direct regressions for the hot-path fixes
   (total insert, single-scan pruning, lazy heap expiry) and the bound
   on the expiry heap. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rng0 = Rng.create 271828182845L

(* The trigger table as first shipped: a hashtable of 128-bit-prefix
   buckets holding id-sorted groups of entries, swept wholesale.
   [insert] is wrapped to be total like the table's (already-expired and
   NaN deadlines are silently dropped); everything else is kept verbatim
   so the table is judged against the behaviour the rest of the system
   was built on. *)
module Reference = struct
  type entry = { trigger : I3.Trigger.t; mutable expires : float }
  type group = { gid : Id.t; mutable entries : entry list }

  type t = {
    buckets : (string, group list ref) Hashtbl.t;
    mutable count : int;
  }

  let create () = { buckets = Hashtbl.create 64; count = 0 }
  let prefix_key id = String.sub (Id.to_raw_string id) 0 (Id.prefix_bits / 8)

  let bucket_ref t id =
    let key = prefix_key id in
    match Hashtbl.find_opt t.buckets key with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add t.buckets key b;
        b

  let insert t ~now ~expires trigger =
    if not (expires > now) then ()
    else begin
      let b = bucket_ref t trigger.I3.Trigger.id in
      let rec place = function
        | [] -> [ { gid = trigger.I3.Trigger.id; entries = [] } ]
        | g :: rest as groups ->
            let c = Id.compare trigger.I3.Trigger.id g.gid in
            if c = 0 then groups
            else if c < 0 then
              { gid = trigger.I3.Trigger.id; entries = [] } :: groups
            else g :: place rest
      in
      b := place !b;
      let g = List.find (fun g -> Id.equal g.gid trigger.I3.Trigger.id) !b in
      match
        List.find_opt
          (fun e -> I3.Trigger.same_binding e.trigger trigger)
          g.entries
      with
      | Some e -> e.expires <- Float.max e.expires expires
      | None ->
          g.entries <- { trigger; expires } :: g.entries;
          t.count <- t.count + 1
    end

  let drop_group_if_empty t id =
    let key = prefix_key id in
    match Hashtbl.find_opt t.buckets key with
    | None -> ()
    | Some b ->
        b := List.filter (fun g -> g.entries <> []) !b;
        if !b = [] then Hashtbl.remove t.buckets key

  let remove t trigger =
    let key = prefix_key trigger.I3.Trigger.id in
    match Hashtbl.find_opt t.buckets key with
    | None -> false
    | Some b -> (
        match
          List.find_opt (fun g -> Id.equal g.gid trigger.I3.Trigger.id) !b
        with
        | None -> false
        | Some g ->
            let before = List.length g.entries in
            g.entries <-
              List.filter
                (fun e -> not (I3.Trigger.same_binding e.trigger trigger))
                g.entries;
            let removed = before - List.length g.entries in
            t.count <- t.count - removed;
            drop_group_if_empty t trigger.I3.Trigger.id;
            removed > 0)

  let remove_matching t ~id ~target =
    let key = prefix_key id in
    match Hashtbl.find_opt t.buckets key with
    | None -> 0
    | Some b -> (
        match List.find_opt (fun g -> Id.equal g.gid id) !b with
        | None -> 0
        | Some g ->
            let points_at e =
              match I3.Trigger.target_id e.trigger with
              | Some tid -> Id.equal tid target
              | None -> false
            in
            let before = List.length g.entries in
            g.entries <- List.filter (fun e -> not (points_at e)) g.entries;
            let removed = before - List.length g.entries in
            t.count <- t.count - removed;
            drop_group_if_empty t id;
            removed)

  let live_entries t ~now g =
    let live, dead = List.partition (fun e -> e.expires > now) g.entries in
    if dead <> [] then begin
      g.entries <- live;
      t.count <- t.count - List.length dead
    end;
    live

  let find_matches t ~now pid =
    let key = prefix_key pid in
    match Hashtbl.find_opt t.buckets key with
    | None -> []
    | Some b ->
        let best = ref None in
        List.iter
          (fun g ->
            if live_entries t ~now g <> [] then begin
              let l = Id.common_prefix_len g.gid pid in
              match !best with
              | Some (bl, _) when bl >= l -> ()
              | _ -> best := Some (l, g)
            end)
          !b;
        (match !best with
        | None -> []
        | Some (_, g) -> List.map (fun e -> e.trigger) (live_entries t ~now g))

  let bucket_of t ~now pid =
    let key = prefix_key pid in
    match Hashtbl.find_opt t.buckets key with
    | None -> []
    | Some b ->
        List.concat_map
          (fun g -> List.map (fun e -> e.trigger) (live_entries t ~now g))
          !b

  let bucket_entries t ~now pid =
    let key = prefix_key pid in
    match Hashtbl.find_opt t.buckets key with
    | None -> []
    | Some b ->
        List.concat_map
          (fun g ->
            ignore (live_entries t ~now g);
            List.map (fun e -> (e.trigger, e.expires -. now)) g.entries)
          !b

  let expire t ~now =
    let dropped = ref 0 in
    let empty_keys = ref [] in
    Hashtbl.iter
      (fun key b ->
        List.iter
          (fun g ->
            let live = List.filter (fun e -> e.expires > now) g.entries in
            dropped := !dropped + (List.length g.entries - List.length live);
            g.entries <- live)
          !b;
        b := List.filter (fun g -> g.entries <> []) !b;
        if !b = [] then empty_keys := key :: !empty_keys)
      t.buckets;
    List.iter (Hashtbl.remove t.buckets) !empty_keys;
    t.count <- t.count - !dropped;
    !dropped

  let size t = t.count

  let mem_live t ~now trigger =
    match Hashtbl.find_opt t.buckets (prefix_key trigger.I3.Trigger.id) with
    | None -> false
    | Some b ->
        List.exists
          (fun g ->
            List.exists
              (fun e ->
                e.expires > now && I3.Trigger.same_binding e.trigger trigger)
              g.entries)
          !b
end

(* The two implementations collect expired-but-unswept entries
   differently (the reference sweeps everything in [expire]; the table
   pops due heap items, and either one prunes the buckets its lookups
   scan), so queries about *live* state must always agree, while queries
   that can see unswept garbage ([remove]'s return, [size]) are compared
   right after a full [expire], when both hold exactly the live set. *)
let test_differential =
  let open QCheck2.Gen in
  let script_gen =
    let* seed = int_range 1 1_000_000 in
    let* ops = list_size (int_range 1 80) (int_range 0 99) in
    return (seed, ops)
  in
  qtest ~count:150 "agrees with the reference implementation" script_gen
    (fun (seed, ops) ->
      let rng = Rng.create (Int64.of_int seed) in
      let prefix = Id.random rng in
      let deep = Id.random_with_prefix rng prefix in
      let pool =
        Array.init 10 (fun i ->
            if i <= 1 then deep (* exact duplicate: one id, many bindings *)
            else if i < 7 then Id.random_with_prefix rng prefix
            else Id.random rng)
      in
      let table = I3.Trigger_table.create () in
      let refr = Reference.create () in
      let clock = ref 0. in
      let ok = ref true in
      let check b = if not b then ok := false in
      let sweep_both () =
        ignore (I3.Trigger_table.expire table ~now:!clock);
        ignore (Reference.expire refr ~now:!clock)
      in
      let pick_id () = pool.(Rng.int rng (Array.length pool)) in
      let pick_trigger () =
        let id = pick_id () in
        let owner = Rng.int rng 3 in
        if Rng.int rng 4 = 0 then
          I3.Trigger.make ~id ~stack:[ I3.Packet.Sid (pick_id ()) ] ~owner
        else I3.Trigger.to_host ~id ~owner
      in
      List.iter
        (fun op ->
          if op < 40 then begin
            let tr = pick_trigger () in
            let expires =
              match Rng.int rng 8 with
              | 0 -> !clock (* not strictly in the future: dropped *)
              | 1 -> !clock -. 5. (* already expired: dropped *)
              | 2 -> Float.nan (* hostile lifetime: dropped *)
              | _ -> !clock +. float_of_int (5 + Rng.int rng 80)
            in
            I3.Trigger_table.insert table ~now:!clock ~expires tr;
            Reference.insert refr ~now:!clock ~expires tr
          end
          else if op < 52 then begin
            let tr = pick_trigger () in
            if Rng.bool rng then begin
              (* no unswept garbage: return values must agree exactly *)
              sweep_both ();
              check
                (Bool.equal
                   (I3.Trigger_table.remove table tr)
                   (Reference.remove refr tr))
            end
            else begin
              let live = Reference.mem_live refr ~now:!clock tr in
              let a = I3.Trigger_table.remove table tr in
              let b = Reference.remove refr tr in
              if live then check (a && b)
            end
          end
          else if op < 60 then begin
            sweep_both ();
            let id = pick_id () and target = pick_id () in
            check
              (I3.Trigger_table.remove_matching table ~id ~target
              = Reference.remove_matching refr ~id ~target)
          end
          else if op < 72 then begin
            clock := !clock +. float_of_int (Rng.int rng 50);
            sweep_both ();
            check (I3.Trigger_table.size table = Reference.size refr)
          end
          else if op < 88 then begin
            let pid =
              if Rng.bool rng then pick_id ()
              else Id.random_with_prefix rng prefix
            in
            check
              (List.equal I3.Trigger.equal
                 (I3.Trigger_table.find_matches table ~now:!clock pid)
                 (Reference.find_matches refr ~now:!clock pid))
          end
          else begin
            let pid = pick_id () in
            check
              (List.equal I3.Trigger.equal
                 (I3.Trigger_table.bucket_of table ~now:!clock pid)
                 (Reference.bucket_of refr ~now:!clock pid));
            check
              (List.equal
                 (fun (t1, r1) (t2, r2) ->
                   I3.Trigger.equal t1 t2 && Float.equal r1 r2)
                 (I3.Trigger_table.bucket_entries table ~now:!clock pid)
                 (Reference.bucket_entries refr ~now:!clock pid))
          end)
        ops;
      clock := !clock +. 1_000.;
      sweep_both ();
      check (I3.Trigger_table.size table = Reference.size refr);
      !ok)

let test_insert_total () =
  let r = Rng.copy rng0 in
  let t = I3.Trigger_table.create () in
  let tr = I3.Trigger.to_host ~id:(Id.random r) ~owner:7 in
  I3.Trigger_table.insert t ~now:10. ~expires:10. tr;
  I3.Trigger_table.insert t ~now:10. ~expires:3. tr;
  I3.Trigger_table.insert t ~now:10. ~expires:Float.nan tr;
  Alcotest.(check int) "hostile deadlines dropped" 0 (I3.Trigger_table.size t);
  Alcotest.(check int) "no phantom match" 0
    (List.length (I3.Trigger_table.find_matches t ~now:10. tr.I3.Trigger.id));
  I3.Trigger_table.insert t ~now:10. ~expires:20. tr;
  Alcotest.(check int) "live insert still lands" 1 (I3.Trigger_table.size t);
  (* an expired re-insert must not shorten the live deadline *)
  I3.Trigger_table.insert t ~now:10. ~expires:5. tr;
  Alcotest.(check int) "still matches later" 1
    (List.length (I3.Trigger_table.find_matches t ~now:15. tr.I3.Trigger.id))

(* Half a multicast group expired: one scan must return exactly the
   live half, prune the dead half as a side effect, and a second scan
   must agree (regression for the double live_entries walk). *)
let test_half_expired_group () =
  let r = Rng.copy rng0 in
  let gid = Id.random r in
  let t = I3.Trigger_table.create () in
  for i = 0 to 5 do
    let expires = if i mod 2 = 0 then 50. else 500. in
    I3.Trigger_table.insert t ~now:0. ~expires (I3.Trigger.to_host ~id:gid ~owner:i)
  done;
  let live = I3.Trigger_table.find_matches t ~now:100. gid in
  Alcotest.(check int) "live half returned" 3 (List.length live);
  List.iter
    (fun (tr : I3.Trigger.t) ->
      Alcotest.(check bool) "only unexpired owners" true (tr.owner mod 2 = 1))
    live;
  Alcotest.(check int) "dead half pruned by the scan" 3
    (I3.Trigger_table.size t);
  Alcotest.(check int) "second scan agrees" 3
    (List.length (I3.Trigger_table.find_matches t ~now:100. gid))

let test_heap_stress () =
  let r = Rng.copy rng0 in
  let t = I3.Trigger_table.create () in
  let n = 10_000 in
  let trs =
    Array.init n (fun i -> I3.Trigger.to_host ~id:(Id.random r) ~owner:(i land 7))
  in
  Array.iteri
    (fun i tr ->
      I3.Trigger_table.insert t ~now:0.
        ~expires:(float_of_int (1 + (i mod 100)))
        tr)
    trs;
  Alcotest.(check int) "all resident" n (I3.Trigger_table.size t);
  Array.iteri
    (fun i tr ->
      if i mod 3 = 0 then I3.Trigger_table.insert t ~now:0. ~expires:1_000. tr)
    trs;
  let survivors = (n + 2) / 3 in
  Alcotest.(check int) "sweep drops all but the refreshed third"
    (n - survivors)
    (I3.Trigger_table.expire t ~now:100.);
  Alcotest.(check int) "refreshed third resident" survivors
    (I3.Trigger_table.size t);
  Alcotest.(check int) "sweep is idempotent" 0
    (I3.Trigger_table.expire t ~now:100.);
  ignore (I3.Trigger_table.expire t ~now:2_000.);
  Alcotest.(check int) "drains to empty" 0 (I3.Trigger_table.size t)

(* One binding refreshed over and over keeps one heap item: a refresh
   moves the entry's deadline, and the heap item catches up when it
   pops. *)
let test_refresh_one_item () =
  let r = Rng.copy rng0 in
  let t = I3.Trigger_table.create () in
  let tr = I3.Trigger.to_host ~id:(Id.random r) ~owner:3 in
  for i = 1 to 100_000 do
    let now = float_of_int i in
    I3.Trigger_table.insert t ~now ~expires:(now +. 30_000.) tr
  done;
  Alcotest.(check int) "one binding" 1 (I3.Trigger_table.size t);
  Alcotest.(check int) "one heap item" 1 (I3.Trigger_table.heap_length t);
  Alcotest.(check int) "nothing due" 0
    (I3.Trigger_table.expire t ~now:100_000.);
  Alcotest.(check int) "re-queued, still one item" 1
    (I3.Trigger_table.heap_length t);
  Alcotest.(check int) "dropped at its last deadline" 1
    (I3.Trigger_table.expire t ~now:130_000.);
  Alcotest.(check int) "heap empty" 0 (I3.Trigger_table.heap_length t)

(* Refresh-heavy random traces over a few bindings: the heap always
   holds an item per stored binding, and every [expire] leaves it within
   2 * size + 64, however many refreshes, removals and match-time prunes
   came before. *)
let test_heap_bound =
  let open QCheck2.Gen in
  let script_gen =
    let* seed = int_range 1 1_000_000 in
    let* ops = list_size (int_range 1 400) (int_range 0 99) in
    return (seed, ops)
  in
  qtest ~count:150 "expire bounds the heap by the table" script_gen
    (fun (seed, ops) ->
      let rng = Rng.create (Int64.of_int seed) in
      let prefix = Id.random rng in
      let pool =
        Array.init 8 (fun i ->
            if i < 5 then Id.random_with_prefix rng prefix else Id.random rng)
      in
      let t = I3.Trigger_table.create () in
      let clock = ref 0. in
      let ok = ref true in
      let pick_trigger () =
        I3.Trigger.to_host
          ~id:pool.(Rng.int rng (Array.length pool))
          ~owner:(Rng.int rng 3)
      in
      List.iter
        (fun op ->
          let len = I3.Trigger_table.heap_length t
          and size = I3.Trigger_table.size t in
          if len < size then ok := false;
          if op < 55 then
            I3.Trigger_table.insert t ~now:!clock
              ~expires:(!clock +. float_of_int (100 + Rng.int rng 900))
              (pick_trigger ())
          else if op < 65 then
            ignore (I3.Trigger_table.remove t (pick_trigger ()))
          else if op < 75 then
            ignore
              (I3.Trigger_table.find_matches t ~now:!clock
                 pool.(Rng.int rng (Array.length pool)))
          else if op < 90 then clock := !clock +. float_of_int (Rng.int rng 40)
          else begin
            ignore (I3.Trigger_table.expire t ~now:!clock);
            if
              I3.Trigger_table.heap_length t
              > (2 * I3.Trigger_table.size t) + 64
            then ok := false
          end)
        ops;
      !ok)

let () =
  Alcotest.run "trigger_table"
    [
      ( "table",
        [
          Alcotest.test_case "insert is total" `Quick test_insert_total;
          Alcotest.test_case "half-expired multicast group" `Quick
            test_half_expired_group;
          Alcotest.test_case "lazy expiry under refresh churn" `Quick
            test_heap_stress;
          test_differential;
        ] );
      ( "heap",
        [
          Alcotest.test_case "one item per refreshed binding" `Quick
            test_refresh_one_item;
          test_heap_bound;
        ] );
    ]
