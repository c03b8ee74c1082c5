(* Every JSON document rmt-lint writes parses back with Sarif.Json.parse:
   the check --json report on the real tree, the same report with a
   stale baseline pin whose file token needs escaping, and the
   --summaries-out and --model-out dumps; and a misspelt DIR fails
   closed.  Runs the built binary over lib/'s typedtrees (the @check
   alias, a dependency of this test). *)

let exe = "../../bin/rmt_lint.exe"
let build_dir = "../.."
let baseline = "../../lint-baseline.txt"

let read path = In_channel.with_open_bin path In_channel.input_all

let parse_json what text =
  match Rmt_lint.Sarif.Json.parse text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s is not JSON (%s):\n%s" what e text

(* [check --json] with [args]: exit code and stdout *)
let check_json args =
  let out = Filename.temp_file "rmt_lint" ".json" in
  let cmd =
    String.concat " "
      (List.map Filename.quote
         ([ exe; "check"; "--build-dir"; build_dir; "--json" ] @ args))
  in
  let code = Sys.command (cmd ^ " > " ^ Filename.quote out) in
  let text = read out in
  Sys.remove out;
  (code, text)

let test_real_tree () =
  let summaries = Filename.temp_file "rmt_lint_summaries" ".json" in
  let model = Filename.temp_file "rmt_lint_model" ".json" in
  let code, report =
    check_json
      [ "--baseline"; baseline; "--summaries-out"; summaries;
        "--model-out"; model ]
  in
  Alcotest.(check int) "clean against the committed baseline" 0 code;
  ignore (parse_json "check --json" report);
  ignore (parse_json "--summaries-out" (read summaries));
  ignore (parse_json "--model-out" (read model));
  Sys.remove summaries;
  Sys.remove model

let test_stale_entry_escaped () =
  let file = {|lib/x"y\z.ml|} in
  let stale = Filename.temp_file "rmt_lint_baseline" ".txt" in
  Out_channel.with_open_bin stale (fun oc ->
      output_string oc (read baseline);
      output_string oc ("R1 deadbeef0000 " ^ file ^ " # bogus\n"));
  let code, report = check_json [ "--baseline"; stale ] in
  Sys.remove stale;
  Alcotest.(check int) "a stale pin fails the run" 1 code;
  let open Rmt_lint.Sarif.Json in
  let json = parse_json "check --json" report in
  let entries = Option.bind (member "stale_baseline" json) to_list in
  let token key e = Option.bind (member key e) to_string in
  Alcotest.(check (list (list (option string))))
    "the stale entry's tokens round-trip"
    [ [ Some "R1"; Some "deadbeef0000"; Some file ] ]
    (List.map
       (fun e -> [ token "rule" e; token "fingerprint" e; token "file" e ])
       (Option.value entries ~default:[]))

(* A DIR that holds no analysed unit fails closed: exit 2 and a message
   naming it, not an empty report or every pin reported stale. *)
let test_wrong_dir () =
  let err = Filename.temp_file "rmt_lint" ".err" in
  let cmd =
    String.concat " "
      (List.map Filename.quote
         [ exe; "check"; "--build-dir"; build_dir; "--baseline"; baseline;
           "lbi" ])
  in
  let code = Sys.command (cmd ^ " > /dev/null 2> " ^ Filename.quote err) in
  let message = read err in
  Sys.remove err;
  Alcotest.(check int) "a misspelt DIR is a usage error" 2 code;
  let names_dir =
    let sub = "under lbi" in
    let n = String.length message and m = String.length sub in
    let rec at i = i + m <= n && (String.sub message i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) ("the message names the DIR: " ^ message) true names_dir

let () =
  Alcotest.run "lint json"
    [
      ( "outputs",
        [
          Alcotest.test_case "real tree" `Quick test_real_tree;
          Alcotest.test_case "stale baseline entry" `Quick
            test_stale_entry_escaped;
          Alcotest.test_case "misspelt DIR" `Quick test_wrong_dir;
        ] );
    ]
