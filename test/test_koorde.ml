(* lib/koorde: de Bruijn identifier arithmetic, substrate routing
   correctness (every substrate terminates at the responsible node) and
   the Koorde hop/state bounds. *)

let id_eq = Alcotest.testable Id.pp Id.equal

(* --- Id shift arithmetic --- *)

let test_shift_basics () =
  Alcotest.(check id_eq) "1 << 8" (Id.of_int 256) (Id.shift_left (Id.of_int 1) 8);
  Alcotest.(check id_eq) "256 >> 8" (Id.of_int 1) (Id.shift_right (Id.of_int 256) 8);
  Alcotest.(check id_eq) "<< 0 is id" (Id.of_int 77) (Id.shift_left (Id.of_int 77) 0);
  Alcotest.(check id_eq) ">> 0 is id" (Id.of_int 77) (Id.shift_right (Id.of_int 77) 0);
  Alcotest.(check id_eq) "<< 256 is zero" Id.zero (Id.shift_left Id.max_value 256);
  Alcotest.(check id_eq) ">> 256 is zero" Id.zero (Id.shift_right Id.max_value 256);
  (* cross-byte shifts *)
  Alcotest.(check id_eq) "3 << 13"
    (Id.of_int (3 * 8192))
    (Id.shift_left (Id.of_int 3) 13);
  Alcotest.(check id_eq) "max >> 255 is 1" (Id.of_int 1)
    (Id.shift_right Id.max_value 255)

let test_extract_bits () =
  Alcotest.(check int) "low nibble" 11
    (Id.extract_bits (Id.of_int 0b1011) ~pos:252 ~len:4);
  Alcotest.(check int) "empty window" 0
    (Id.extract_bits Id.max_value ~pos:10 ~len:0);
  Alcotest.(check int) "top byte of max" 255
    (Id.extract_bits Id.max_value ~pos:0 ~len:8)

let raw_id_gen =
  QCheck.map
    (fun s -> Id.of_raw_string s)
    (QCheck.string_of_size (QCheck.Gen.return Id.byte_length))

let prop_shift_add =
  QCheck.Test.make ~count:200 ~name:"shift_left 1 = add x x" raw_id_gen
    (fun x -> Id.equal (Id.shift_left x 1) (Id.add x x))

let prop_shift_compose =
  QCheck.Test.make ~count:200 ~name:"shifts compose"
    (QCheck.pair raw_id_gen (QCheck.int_range 0 255))
    (fun (x, n) ->
      Id.equal (Id.shift_left x n) (Id.shift_left (Id.shift_left x (n / 2)) (n - (n / 2)))
      && Id.equal (Id.shift_right x n)
           (Id.shift_right (Id.shift_right x (n / 2)) (n - (n / 2))))

let prop_shift_roundtrip =
  (* Right shift undoes left shift up to the bits pushed off the top:
     the roundtrip clears exactly the top n bits, so it never exceeds x
     and re-shifting left recovers the same value shift_left x gave. *)
  QCheck.Test.make ~count:200 ~name:"shift roundtrip keeps low bits"
    (QCheck.pair raw_id_gen (QCheck.int_range 0 255))
    (fun (x, n) ->
      let kept = Id.shift_right (Id.shift_left x n) n in
      Id.compare kept x <= 0
      && Id.equal (Id.shift_left kept n) (Id.shift_left x n))

(* --- substrate routing properties --- *)

(* Deterministic toy latency so the proximity heuristics are buildable
   without a topology. *)
let toy_latency i j = if i = j then 0. else float_of_int (1 + ((i * 31 + j * 17) mod 19))

let specs_under_test =
  Koorde.Substrate.bakeoff_specs
  @ [ Koorde.Substrate.Chord (Chord.Routing.Closest_finger_set { gamma = 4 }) ]

let ring n seed = Chord.Oracle.random (Rng.of_int seed) ~n

let is_koorde = function Koorde.Substrate.Koorde _ -> true | _ -> false

let check_path ~spec ~oracle ~start ~key path =
  let n = Chord.Oracle.size oracle in
  let target = Chord.Oracle.successor_index oracle key in
  let name = Koorde.Substrate.label spec in
  if List.hd path <> start then
    QCheck.Test.fail_reportf "%s: path does not start at start" name;
  if List.nth path (List.length path - 1) <> target then
    QCheck.Test.fail_reportf "%s: path does not end at responsible node" name;
  let rec consecutive_ok = function
    | a :: (b :: _ as rest) ->
        if a = b then QCheck.Test.fail_reportf "%s: self-hop in path" name
        else consecutive_ok rest
    | _ -> true
  in
  ignore (consecutive_ok path);
  (* Chord-family hops strictly shrink the ring distance, so the path
     can never revisit a node.  (Koorde's imaginary-id walk may map two
     distinct de Bruijn states onto one physical node on a sparse ring,
     so only the no-self-hop and budget guarantees apply there.) *)
  if not (is_koorde spec) then begin
    let seen = Hashtbl.create 32 in
    List.iter
      (fun node ->
        if Hashtbl.mem seen node then
          QCheck.Test.fail_reportf "%s: node %d visited twice" name node;
        Hashtbl.add seen node ())
      path
  end;
  if List.length path - 1 > n then
    QCheck.Test.fail_reportf "%s: path longer than the ring" name;
  true

let prop_routes_terminate =
  let oracle = ring 100 42 in
  let subs =
    List.map
      (fun spec -> (spec, Koorde.Substrate.create ~latency:toy_latency oracle spec))
      specs_under_test
  in
  QCheck.Test.make ~count:120 ~name:"every substrate terminates at responsible"
    (QCheck.pair raw_id_gen (QCheck.int_range 0 99))
    (fun (key, start) ->
      List.for_all
        (fun (spec, sub) ->
          let path = Koorde.Substrate.route sub ~start ~key in
          check_path ~spec ~oracle ~start ~key path)
        subs)

let prop_next_hop_walk =
  (* Walking per-server next_hop decisions must reach the responsible
     node too: this is the exact primitive Transport.Deployment servers use. *)
  let oracle = ring 64 7 in
  let subs =
    List.map
      (fun spec -> (spec, Koorde.Substrate.create ~latency:toy_latency oracle spec))
      specs_under_test
  in
  QCheck.Test.make ~count:80 ~name:"next_hop walk reaches responsible"
    (QCheck.pair raw_id_gen (QCheck.int_range 0 63))
    (fun (key, start) ->
      let key = Id.routing_key key in
      let target = Chord.Oracle.successor_index oracle key in
      List.for_all
        (fun (spec, sub) ->
          let rec walk current steps =
            if steps > 128 then
              QCheck.Test.fail_reportf "%s: next_hop walk did not terminate"
                (Koorde.Substrate.label spec)
            else
              match Koorde.Substrate.next_hop sub ~current ~key with
              | None ->
                  if current <> target then
                    QCheck.Test.fail_reportf "%s: walk stopped off-target"
                      (Koorde.Substrate.label spec)
                  else true
              | Some next -> walk next (steps + 1)
          in
          walk start 0)
        subs)

(* --- Koorde hop bound: <= 2 * log2 n, seeded and deterministic --- *)

let test_koorde_hop_bound () =
  let n = 1024 in
  let oracle = ring n 9 in
  let bound = 2 * 10 in
  (* 2 * log2 1024 *)
  let rng = Rng.of_int 1234 in
  List.iter
    (fun degree ->
      let r = Koorde.Routing.create ~degree oracle in
      let worst = ref 0 in
      for _ = 1 to 300 do
        let key = Id.random rng in
        let start = Rng.int rng n in
        let hops = List.length (Koorde.Routing.route r ~start ~key) - 1 in
        if hops > !worst then worst := hops
      done;
      if !worst > bound then
        Alcotest.failf "koorde degree %d: worst case %d hops > 2*log2 n = %d"
          degree !worst bound)
    [ 2; 8 ]

(* --- O(1) state vs Chord's log n, and the hops-beat-chord claim --- *)

let test_koorde_state_constant () =
  (* Per-node state varies with the node's arc width; what is constant
     in n is the MEAN: summing image fingers over the ring telescopes to
     exactly (degree + 1) * n, so mean entries = degree + 3 at any n. *)
  let mean_state r n =
    let total = ref 0 in
    for node = 0 to n - 1 do
      total := !total + Koorde.Routing.state_bytes r node
    done;
    float_of_int !total /. float_of_int n
  in
  let small = ring 256 5 and big = ring 4096 5 in
  List.iter
    (fun degree ->
      let s = Koorde.Routing.create ~degree small in
      let b = Koorde.Routing.create ~degree big in
      let expected =
        float_of_int (Chord.Routing.entry_bytes * (degree + 3))
      in
      Alcotest.(check (float 1.0))
        (Printf.sprintf "degree-%d mean state at n=256" degree)
        expected (mean_state s 256);
      Alcotest.(check (float 1.0))
        (Printf.sprintf "degree-%d mean state at n=4096" degree)
        expected (mean_state b 4096))
    [ 2; 8 ];
  let chord_small = Chord.Routing.create small Chord.Routing.Default in
  let chord_big = Chord.Routing.create big Chord.Routing.Default in
  Alcotest.(check bool) "chord state grows with the ring" true
    (Chord.Routing.state_bytes chord_big 0
    > Chord.Routing.state_bytes chord_small 0)

let test_koorde_beats_chord_at_scale () =
  (* The acceptance claim of the bakeoff, checked on membership alone
     (no topology needed for hop counts): at n = 10^4, Koorde degree 8
     wins on mean hops while holding constant state. *)
  let n = 10_000 in
  let oracle = ring n 11 in
  let rng = Rng.of_int 77 in
  let queries =
    Array.init 400 (fun _ -> (Rng.int rng n, Id.random rng))
  in
  let mean_hops router_route =
    let total =
      Array.fold_left
        (fun acc (start, key) ->
          acc + List.length (router_route ~start ~key) - 1)
        0 queries
    in
    float_of_int total /. float_of_int (Array.length queries)
  in
  let chord = Chord.Routing.create oracle Chord.Routing.Default in
  let koorde = Koorde.Routing.create ~degree:8 oracle in
  let chord_hops = mean_hops (Chord.Routing.route chord) in
  let koorde_hops = mean_hops (Koorde.Routing.route koorde) in
  if koorde_hops >= chord_hops then
    Alcotest.failf "koorde-8 mean hops %.2f not below chord %.2f" koorde_hops
      chord_hops;
  let mean_state state_bytes =
    let total = ref 0 in
    for s = 0 to 255 do
      total := !total + state_bytes (s * 37 mod n)
    done;
    !total / 256
  in
  let ks = mean_state (Koorde.Routing.state_bytes koorde) in
  let cs = mean_state (Chord.Routing.state_bytes chord) in
  if ks >= cs then
    Alcotest.failf "koorde-8 mean state %d B not below chord %d B" ks cs

let () =
  Alcotest.run "koorde"
    [
      ( "id-arithmetic",
        [
          Alcotest.test_case "shift basics" `Quick test_shift_basics;
          Alcotest.test_case "extract bits" `Quick test_extract_bits;
          QCheck_alcotest.to_alcotest prop_shift_add;
          QCheck_alcotest.to_alcotest prop_shift_compose;
          QCheck_alcotest.to_alcotest prop_shift_roundtrip;
        ] );
      ( "substrate",
        [
          QCheck_alcotest.to_alcotest prop_routes_terminate;
          QCheck_alcotest.to_alcotest prop_next_hop_walk;
          Alcotest.test_case "koorde hop bound" `Quick test_koorde_hop_bound;
          Alcotest.test_case "koorde O(1) state" `Quick
            test_koorde_state_constant;
          Alcotest.test_case "koorde beats chord at n=10^4" `Slow
            test_koorde_beats_chord_at_scale;
        ] );
    ]
