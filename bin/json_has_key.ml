(* json_has_key FILE KEY: exit 0 iff FILE parses as a JSON object with
   the member KEY; otherwise say why on stderr and exit 1. *)

let () =
  match Sys.argv with
  | [| _; path; key |] -> (
      match Json.of_file ~path with
      | Json.Obj fields when List.mem_assoc key fields -> ()
      | _ ->
          Printf.eprintf "json_has_key: %s has no member %S\n" path key;
          exit 1
      | exception (Json.Parse_error m | Sys_error m) ->
          Printf.eprintf "json_has_key: %s: %s\n" path m;
          exit 1)
  | _ ->
      prerr_endline "usage: json_has_key FILE KEY";
      exit 2
