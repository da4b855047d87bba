type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* JSON string-escape the contents (no surrounding quotes): backslash,
   quote and control characters; everything else is passed through, so
   UTF-8 survives byte-for-byte. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\x0c' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_float buf f =
  if Float.is_finite f then begin
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf s;
    (* "%g" of a whole number prints no '.' or exponent; keep the token a
       JSON number that round-trips as a float. *)
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf "null"

let rec to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          to_buffer buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_file ~path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

let lines_to_file ?(append = false) ~path vs =
  let oc =
    if append then
      open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
    else open_out path
  in
  List.iter
    (fun v ->
      output_string oc (to_string v);
      output_char oc '\n')
    vs;
  close_out oc

(* Parsing: recursive descent over the string, tracking one position. *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let fail_at p msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  while
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance p;
        true
    | _ -> false
  do
    ()
  done

let expect p c =
  match peek p with
  | Some d when d = c -> advance p
  | _ -> fail_at p (Printf.sprintf "expected '%c'" c)

let expect_word p w v =
  let n = String.length w in
  if p.pos + n <= String.length p.src && String.sub p.src p.pos n = w then begin
    p.pos <- p.pos + n;
    v
  end
  else fail_at p (Printf.sprintf "expected %S" w)

let hex_digit p c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail_at p "bad hex digit in \\u escape"

let parse_hex4 p =
  if p.pos + 4 > String.length p.src then fail_at p "truncated \\u escape";
  let v =
    (hex_digit p p.src.[p.pos] lsl 12)
    lor (hex_digit p p.src.[p.pos + 1] lsl 8)
    lor (hex_digit p p.src.[p.pos + 2] lsl 4)
    lor hex_digit p p.src.[p.pos + 3]
  in
  p.pos <- p.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail_at p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' -> (
        advance p;
        match peek p with
        | None -> fail_at p "truncated escape"
        | Some c ->
            advance p;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\x0c'
            | 'u' ->
                let cp = parse_hex4 p in
                let cp =
                  (* combine surrogate pairs when both halves are present *)
                  if cp >= 0xd800 && cp <= 0xdbff
                     && p.pos + 1 < String.length p.src
                     && p.src.[p.pos] = '\\'
                     && p.src.[p.pos + 1] = 'u'
                  then begin
                    p.pos <- p.pos + 2;
                    let lo = parse_hex4 p in
                    if lo >= 0xdc00 && lo <= 0xdfff then
                      0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                    else fail_at p "unpaired surrogate"
                  end
                  else cp
                in
                add_utf8 buf cp
            | _ -> fail_at p "unknown escape");
            go ())
    | Some c ->
        advance p;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    (c >= '0' && c <= '9')
    || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while match peek p with Some c when is_num_char c -> advance p; true | _ -> false do
    ()
  done;
  let tok = String.sub p.src start (p.pos - start) in
  let is_integral =
    String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') tok
  in
  if is_integral then
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail_at p "bad number")
  else
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail_at p "bad number"

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail_at p "unexpected end of input"
  | Some 'n' -> expect_word p "null" Null
  | Some 't' -> expect_word p "true" (Bool true)
  | Some 'f' -> expect_word p "false" (Bool false)
  | Some '"' -> String (parse_string_body p)
  | Some '[' ->
      advance p;
      skip_ws p;
      if peek p = Some ']' then begin
        advance p;
        List []
      end
      else begin
        let items = ref [ parse_value p ] in
        skip_ws p;
        while peek p = Some ',' do
          advance p;
          items := parse_value p :: !items;
          skip_ws p
        done;
        expect p ']';
        List (List.rev !items)
      end
  | Some '{' ->
      advance p;
      skip_ws p;
      if peek p = Some '}' then begin
        advance p;
        Obj []
      end
      else begin
        let field () =
          skip_ws p;
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          (k, parse_value p)
        in
        let fields = ref [ field () ] in
        skip_ws p;
        while peek p = Some ',' do
          advance p;
          fields := field () :: !fields;
          skip_ws p
        done;
        expect p '}';
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail_at p (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail_at p "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

let of_file ~path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* Accessors *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let path v dotted =
  List.fold_left
    (fun acc k -> Option.bind acc (member k))
    (Some v)
    (String.split_on_char '.' dotted)

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
