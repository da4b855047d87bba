type group = Id.t

let create_group rng = Id.random rng
let named_group name = Id.name_hash name

let suffix_bytes = (Id.bits - Id.prefix_bits) / 8

let encode rng ~group ~preference =
  let base = Id.random_with_prefix rng group in
  match preference with
  | None -> base
  | Some p ->
      (* Preference fills the high suffix bytes; the random tail from
         [base] persists in whatever the preference does not cover. *)
      let p = if String.length p > suffix_bytes then String.sub p 0 suffix_bytes else p in
      let raw = Bytes.of_string (Id.to_raw_string base) in
      String.iteri
        (fun i c -> Bytes.set raw ((Id.prefix_bits / 8) + i) c)
        p;
      Id.of_raw_string (Bytes.to_string raw)

let member_id rng ~group ?preference () = encode rng ~group ~preference
let packet_id rng ~group ?preference () = encode rng ~group ~preference

let join host rng ~group ?preference () =
  let id = member_id rng ~group ?preference () in
  Transport.Host.insert_trigger host id;
  id

let send host rng ~group ?preference payload =
  Transport.Host.send host (packet_id rng ~group ?preference ()) payload
