type spec = Chord of Chord.Routing.policy | Koorde of { degree : int }

let slug = function
  | Chord Chord.Routing.Default -> "chord_default"
  | Chord (Chord.Routing.Closest_finger_replica _) -> "chord_replica"
  | Chord (Chord.Routing.Closest_finger_set _) -> "chord_finger_set"
  | Chord (Chord.Routing.Prefix_pns _) -> "chord_pns"
  | Koorde { degree } -> Printf.sprintf "koorde%d" degree

let pp_spec ppf = function
  | Chord p -> Format.fprintf ppf "chord:%a" Chord.Routing.pp_policy p
  | Koorde { degree } -> Format.fprintf ppf "koorde(k=%d)" degree

let label spec = Format.asprintf "%a" pp_spec spec

let of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "chord" | "chord-default" | "default" -> Some (Chord Chord.Routing.Default)
  | "chord-replica" | "closest-finger-replica" | "cfr" ->
      Some (Chord (Chord.Routing.Closest_finger_replica { replicas = 10 }))
  | "chord-finger-set" | "closest-finger-set" | "cfs" ->
      Some (Chord (Chord.Routing.Closest_finger_set { gamma = 11 }))
  | "chord-pns" | "prefix-pns" | "pns" ->
      Some (Chord (Chord.Routing.Prefix_pns { digit_bits = 4; scan = 16 }))
  | "koorde" -> Some (Koorde { degree = 8 })
  | _ ->
      if String.length s > 6 && String.sub s 0 6 = "koorde" then
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some d when d >= 2 -> Some (Koorde { degree = d })
        | _ -> None
      else None

(* The bakeoff lineup: classic Chord, its two strongest proximity
   heuristics, and Koorde at both ends of the degree knob. *)
let bakeoff_specs =
  [
    Chord Chord.Routing.Default;
    Chord (Chord.Routing.Closest_finger_replica { replicas = 10 });
    Chord (Chord.Routing.Prefix_pns { digit_bits = 4; scan = 16 });
    Koorde { degree = 2 };
    Koorde { degree = 8 };
  ]

type t = Chord of Chord.Routing.t | Koorde of Routing.t

let create ?latency oracle (spec : spec) =
  match spec with
  | Chord policy -> Chord (Chord.Routing.create oracle ?latency policy)
  | Koorde { degree } -> Koorde (Routing.create ~degree oracle)

let next_hop t ~current ~key =
  match t with
  | Chord r -> Chord.Routing.next_hop r ~current ~key
  | Koorde r -> Routing.next_hop r ~current ~key

let route t ~start ~key =
  match t with
  | Chord r -> Chord.Routing.route r ~start ~key
  | Koorde r -> Routing.route r ~start ~key

let candidate_count t node =
  match t with
  | Chord r -> Chord.Routing.candidate_count r node
  | Koorde r -> Routing.candidate_count r node

let state_bytes t node =
  match t with
  | Chord r -> Chord.Routing.state_bytes r node
  | Koorde r -> Routing.state_bytes r node
