type t = string (* 32 bytes, big-endian *)

let bits = 256
let prefix_bits = 128
let byte_length = 32

let zero = String.make byte_length '\x00'
let max_value = String.make byte_length '\xff'

let of_raw_string s =
  if String.length s <> byte_length then
    invalid_arg "Id.of_raw_string: expected 32 bytes";
  s

let to_raw_string t = t

let of_hex s =
  let raw = Hex.decode s in
  if String.length raw <> byte_length then
    invalid_arg "Id.of_hex: expected 64 hex digits";
  raw

let to_hex t = Hex.encode t

let of_int n =
  if n < 0 then invalid_arg "Id.of_int: negative";
  let b = Bytes.make byte_length '\x00' in
  let rec fill i n =
    if n > 0 && i >= 0 then begin
      Bytes.set b i (Char.chr (n land 0xff));
      fill (i - 1) (n lsr 8)
    end
  in
  fill (byte_length - 1) n;
  Bytes.to_string b

let of_int64_shift v s =
  if Int64.compare v 0L < 0 then invalid_arg "Id.of_int64_shift: negative";
  if s < 0 || s >= bits then invalid_arg "Id.of_int64_shift: shift out of range";
  (* Write v into a 40-byte scratch (room for the byte part of the shift),
     then shift the whole buffer left by the remaining bits. *)
  let byte_shift = s / 8 and bit_shift = s mod 8 in
  let b = Bytes.make byte_length '\x00' in
  (* v * 2^bit_shift fits in 9 bytes; place them ending at index
     byte_length - 1 - byte_shift. *)
  let v' =
    (* 72-bit product as (hi, lo64): shift within 64 bits keeping overflow *)
    let lo = Int64.shift_left v bit_shift in
    let hi =
      if bit_shift = 0 then 0
      else Int64.to_int (Int64.shift_right_logical v (64 - bit_shift)) land 0xff
    in
    (hi, lo)
  in
  let hi, lo = v' in
  let put i byte =
    if i >= 0 && i < byte_length then
      Bytes.set b i (Char.chr (byte land 0xff))
  in
  let base = byte_length - 1 - byte_shift in
  for j = 0 to 7 do
    put (base - j)
      (Int64.to_int (Int64.shift_right_logical lo (8 * j)) land 0xff)
  done;
  put (base - 8) hi;
  Bytes.to_string b

let random rng = Bytes.to_string (Rng.bytes rng byte_length)

let compare = String.compare
let equal = String.equal
let hash = Hashtbl.hash

let pp ppf t =
  let h = to_hex t in
  Format.fprintf ppf "%s..%s" (String.sub h 0 8) (String.sub h 60 4)

let name_hash s = Sha256.digest s

(* --- ring arithmetic --- *)

let add a b =
  let out = Bytes.create byte_length in
  let carry = ref 0 in
  for i = byte_length - 1 downto 0 do
    let s = Char.code a.[i] + Char.code b.[i] + !carry in
    Bytes.set out i (Char.unsafe_chr (s land 0xff));
    carry := s lsr 8
  done;
  Bytes.to_string out

let sub a b =
  let out = Bytes.create byte_length in
  let borrow = ref 0 in
  for i = byte_length - 1 downto 0 do
    let d = Char.code a.[i] - Char.code b.[i] - !borrow in
    if d < 0 then begin
      Bytes.set out i (Char.unsafe_chr (d + 256));
      borrow := 1
    end
    else begin
      Bytes.set out i (Char.unsafe_chr d);
      borrow := 0
    end
  done;
  Bytes.to_string out

let succ t = add t (of_int 1)

let add_pow2 t e =
  if e < 0 || e >= bits then invalid_arg "Id.add_pow2: exponent out of range";
  let byte_idx = byte_length - 1 - (e / 8) in
  let out = Bytes.of_string t in
  let rec bump i inc =
    if i >= 0 && inc > 0 then begin
      let s = Char.code (Bytes.get out i) + inc in
      Bytes.set out i (Char.unsafe_chr (s land 0xff));
      bump (i - 1) (s lsr 8)
    end
  in
  bump byte_idx (1 lsl (e mod 8));
  Bytes.to_string out

let antipode t = add_pow2 t (bits - 1)

let distance_cw a b = sub b a

let shift_left t n =
  if n < 0 then invalid_arg "Id.shift_left: negative shift";
  if n = 0 then t
  else if n >= bits then zero
  else begin
    let byte_shift = n / 8 and bit_shift = n mod 8 in
    let out = Bytes.make byte_length '\x00' in
    for i = 0 to byte_length - 1 - byte_shift do
      let src = i + byte_shift in
      let hi = Char.code t.[src] lsl bit_shift in
      let lo =
        if bit_shift > 0 && src + 1 < byte_length then
          Char.code t.[src + 1] lsr (8 - bit_shift)
        else 0
      in
      Bytes.set out i (Char.unsafe_chr ((hi lor lo) land 0xff))
    done;
    Bytes.to_string out
  end

let shift_right t n =
  if n < 0 then invalid_arg "Id.shift_right: negative shift";
  if n = 0 then t
  else if n >= bits then zero
  else begin
    let byte_shift = n / 8 and bit_shift = n mod 8 in
    let out = Bytes.make byte_length '\x00' in
    for i = byte_length - 1 downto byte_shift do
      let src = i - byte_shift in
      let lo = Char.code t.[src] lsr bit_shift in
      let hi =
        if bit_shift > 0 && src - 1 >= 0 then
          Char.code t.[src - 1] lsl (8 - bit_shift)
        else 0
      in
      Bytes.set out i (Char.unsafe_chr ((hi lor lo) land 0xff))
    done;
    Bytes.to_string out
  end

(* --- bit and prefix operations --- *)

let test_bit t i =
  if i < 0 || i >= bits then invalid_arg "Id.test_bit: index out of range";
  Char.code t.[i / 8] land (0x80 lsr (i mod 8)) <> 0

let extract_bits t ~pos ~len =
  if len < 0 || len > 30 then invalid_arg "Id.extract_bits: len out of range";
  if pos < 0 || pos + len > bits then
    invalid_arg "Id.extract_bits: window out of range";
  let acc = ref 0 in
  for i = pos to pos + len - 1 do
    acc := (!acc lsl 1) lor (if test_bit t i then 1 else 0)
  done;
  !acc

let common_prefix_len a b =
  let rec find_byte i =
    if i = byte_length then bits
    else if a.[i] = b.[i] then find_byte (i + 1)
    else begin
      let x = Char.code a.[i] lxor Char.code b.[i] in
      let rec leading_zeros bit = if x land (0x80 lsr bit) <> 0 then bit else leading_zeros (bit + 1) in
      (8 * i) + leading_zeros 0
    end
  in
  find_byte 0

let matches trigger_id packet_id =
  common_prefix_len trigger_id packet_id >= prefix_bits

let clear_low_bits t n =
  if n < 0 || n > bits then invalid_arg "Id.clear_low_bits: out of range";
  if n = 0 then t
  else begin
    let out = Bytes.of_string t in
    let full_bytes = n / 8 in
    for i = byte_length - full_bytes to byte_length - 1 do
      Bytes.set out i '\x00'
    done;
    let rem = n mod 8 in
    if rem > 0 then begin
      let i = byte_length - 1 - full_bytes in
      let m = 0xff lsl rem land 0xff in
      Bytes.set out i (Char.chr (Char.code (Bytes.get out i) land m))
    end;
    Bytes.to_string out
  end

let routing_key t = clear_low_bits t (bits - prefix_bits)

let is_server_id t = equal t (routing_key t)

let random_with_prefix rng p =
  let r = random rng in
  let keep = prefix_bits / 8 in
  String.sub p 0 keep ^ String.sub r keep (byte_length - keep)

let prefix64 t =
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code t.[i]))
  done;
  !acc

let key128 t = String.sub t 8 16

let suffix64 t =
  let acc = ref 0L in
  for i = 24 to 31 do
    acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code t.[i]))
  done;
  !acc

let with_key128 t key =
  if String.length key <> 16 then invalid_arg "Id.with_key128: expected 16 bytes";
  String.sub t 0 8 ^ key ^ String.sub t 24 8

let with_suffix t ~low_bits s =
  if low_bits < 0 || low_bits > bits || low_bits mod 8 <> 0 then
    invalid_arg "Id.with_suffix: low_bits must be a multiple of 8 in [0,256]";
  let nbytes = low_bits / 8 in
  if nbytes = 0 then t
  else begin
    let padded =
      if String.length s >= nbytes then
        String.sub s (String.length s - nbytes) nbytes
      else String.make (nbytes - String.length s) '\x00' ^ s
    in
    String.sub t 0 (byte_length - nbytes) ^ padded
  end
