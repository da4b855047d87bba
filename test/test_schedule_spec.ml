(* bin/i3cluster's --schedule parser: every malformed time, number,
   event, link-fault value or victim index ends in the usage error
   (exit 2, one line naming the event) before any daemon is spawned, so
   these cases need no sockets.  [--i3d] names a missing binary: a spec
   that parses gets as far as that check and no further. *)

let i3cluster =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "i3cluster.exe"))

let run spec =
  let err = Filename.temp_file "i3cluster" ".err" in
  let code =
    Sys.command
      (Filename.quote_command i3cluster ~stderr:err
         [ "--n"; "3"; "--i3d"; "/nonexistent/i3d"; "--schedule"; spec ])
  in
  let ic = open_in err in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  Sys.remove err;
  (code, line)

let refused spec why () =
  let code, line = run spec in
  Alcotest.(check int) "usage error" 2 code;
  Alcotest.(check string) "message"
    (Printf.sprintf "bad schedule event %S: %s" (String.trim spec) why)
    line

let accepted () =
  let code, line = run "2000:crash; 3000:restart:2; 4000:loss:0.5; 5000:heal" in
  Alcotest.(check int) "usage error" 2 code;
  Alcotest.(check string) "got past the schedule"
    "i3d binary not found at /nonexistent/i3d" line

let () =
  Alcotest.run "schedule spec"
    [
      ( "refused",
        List.map
          (fun (spec, why) -> Alcotest.test_case spec `Quick (refused spec why))
          [
            ("soon:crash", "not a number: soon");
            ("-5:heal", "time must be >= 0");
            ("1000:restart:two", "not a number: two");
            ("1000:crash:3", "no such daemon");
            ("1000:crash:-1", "no such daemon");
            ("1000:loss:1.5", "Faults.apply: Loss needs 0 <= p <= 1");
            ("1000:dup:abc", "not a number: abc");
            ("1000:jitter:-2", "Faults.apply: Jitter needs finite ms >= 0");
            ("1000:bogus", "unknown event");
          ] );
      ("accepted", [ Alcotest.test_case "valid spec" `Quick accepted ]);
    ]
