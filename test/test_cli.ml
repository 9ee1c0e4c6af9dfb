(* Table-driven checks of adhoc_sim's flag ranges: every out-of-range
   numeric value is a usage error (cmdliner's exit 124) whose message
   names the flag, and the boundary values are accepted.  The binary's
   path comes from the ADHOC_SIM environment variable, which test/dune
   sets. *)

open Helpers

let exe =
  match Sys.getenv_opt "ADHOC_SIM" with
  | Some path -> path
  | None -> failwith "ADHOC_SIM must name the adhoc_sim binary"

(* Runs the binary and returns (exit code, stdout + stderr). *)
let run_cli args =
  let out = Filename.temp_file "adhoc_cli" ".txt" in
  let code = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:out args) in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

(* Any existing file will do as analyze's positional EVENTS argument: the
   range error is reported before the file is read. *)
let some_file = Sys.executable_name

let rejected =
  [
    ([ "route"; "-n"; "0" ], "-n");
    ([ "route"; "-n"; "1" ], "-n");
    ([ "route"; "--horizon"; "0" ], "--horizon");
    ([ "route"; "--theta"; "0" ], "--theta");
    ([ "route"; "--theta"; "6.3" ], "--theta");
    ([ "route"; "--theta"; "nan" ], "--theta");
    ([ "route"; "--jobs"; "0" ], "--jobs");
    ([ "route"; "--trace-stride"; "0" ], "--trace-stride");
    ([ "route"; "--live-window"; "0" ], "--live-window");
    ([ "route"; "--flows"; "0" ], "--flows");
    ([ "route"; "--epsilon"; "0" ], "--epsilon");
    ([ "route"; "--epsilon"; "1" ], "--epsilon");
    ([ "route"; "--range-factor=-1" ], "--range-factor");
    ([ "route"; "--delta=-0.5" ], "--delta");
    ([ "route"; "--delta"; "inf" ], "--delta");
    ([ "topology"; "-n"; "0" ], "-n");
    ([ "stretch"; "--jobs"; "0" ], "--jobs");
    ([ "stretch"; "--kappa"; "nan" ], "--kappa");
    ([ "stretch"; "--kappa=-2" ], "--kappa");
    ([ "interference"; "--theta=-1" ], "--theta");
    ([ "export"; "-n"; "0" ], "-n");
    ([ "geo"; "-n"; "1" ], "-n");
    ([ "geo"; "--trials"; "0" ], "--trials");
    ([ "analyze"; "--top=-1"; some_file ], "--top");
    ([ "analyze"; "--live-window"; "0"; some_file ], "--live-window");
  ]

let accepted =
  [
    [ "route"; "-n"; "2"; "--horizon"; "1"; "--jobs"; "1" ];
    [
      "route"; "-n"; "20"; "--horizon"; "10"; "--jobs"; "1"; "--flows"; "1"; "--theta";
      "6.283185307179586"; "--epsilon"; "0.999"; "--range-factor"; "0"; "--delta"; "0";
    ];
    [ "topology"; "-n"; "1"; "--jobs"; "1" ];
    [ "geo"; "-n"; "2"; "--trials"; "1"; "--jobs"; "1" ];
  ]

let test_rejected () =
  List.iter
    (fun (args, flag) ->
      let cmd = String.concat " " args in
      let code, text = run_cli args in
      Alcotest.(check int) (cmd ^ ": exit code") 124 code;
      if not (contains text (Printf.sprintf "option '%s'" flag) && contains text "out of range")
      then Alcotest.failf "%s: message does not name %s as out of range:\n%s" cmd flag text)
    rejected

let test_accepted () =
  List.iter
    (fun args ->
      let code, text = run_cli args in
      if code <> 0 then Alcotest.failf "%s: exit %d\n%s" (String.concat " " args) code text)
    accepted

let () =
  Alcotest.run "cli"
    [
      ( "flag ranges",
        [ case "out of range -> exit 124" test_rejected; case "boundaries accepted" test_accepted ]
      );
    ]
