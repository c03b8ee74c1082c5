(* The bench regression gate on small fixture records: which ratios fail
   (the limits table in bench/check_regression.ml), which rows are
   skipped or missing, and that every malformed input exits 2. *)

let gate = "../../bench/check_regression.exe"

(* (exit code, stdout and stderr) of the gate on [args], records read
   from [dir] *)
let run ?(dir = "fixtures") args =
  let out = Filename.temp_file "gate" ".out" in
  let code =
    Sys.command
      (Filename.quote_command gate ~stdout:out ~stderr:out
         (List.map
            (fun a ->
              if Filename.check_suffix a ".json" then Filename.concat dir a
              else a)
            args))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let exits ?dir ?says code args () =
  let got, text = run ?dir args in
  Alcotest.(check int) (String.concat " " args ^ "\n" ^ text) code got;
  Option.iter
    (fun s -> Alcotest.(check bool) ("output names " ^ s) true (contains text s))
    says

let case name f = Alcotest.test_case name `Quick f

(* Every gated committed record passes the gate against itself, so a
   hand edit that leaves one unparseable (say, a stray comma after a
   dropped row) fails here rather than in the next bench-check. *)
let committed_records_pass () =
  List.iter
    (fun section ->
      let record = Printf.sprintf "BENCH_%s.json" section in
      exits ~dir:"../.." 0 [ record; record ] ())
    [ "core"; "lint"; "sim"; "net"; "certified" ]

let () =
  Alcotest.run "gate"
    [
      ( "limits",
        [
          case "identical files pass" (exits 0 [ "base.json"; "base.json" ]);
          case "join row 30% slower fails"
            (exits 1 [ "base.json"; "join_30pct_slower.json" ]
               ~says:"REGRESSION");
          case "net row 2.5x slower passes"
            (exits 0 [ "base.json"; "net_2_5x.json" ]);
          case "net row 3.5x slower fails"
            (exits 1 [ "base.json"; "net_3_5x.json" ] ~says:"REGRESSION");
          case "gated row missing from candidate fails"
            (exits 1 [ "base.json"; "join_missing.json" ] ~says:"MISSING");
          case "noisy baseline row skipped"
            (exits 0 [ "base.json"; "base.json" ]
               ~says:"SKIPPED (baseline r²=0.30)");
          case "committed records pass their own gate" committed_records_pass;
        ] );
      ( "fail closed",
        [
          case "malformed row line"
            (exits 2 [ "malformed_row.json"; "base.json" ]
               ~says:"malformed_row.json:7:");
          case "stray comma after the last row"
            (exits 2 [ "base.json"; "stray_comma.json" ]
               ~says:"stray_comma.json:8: stray ','");
          case "duplicate row name"
            (exits 2 [ "base.json"; "duplicate_row.json" ]
               ~says:"duplicate row \"rmt/net/engine/flood\"");
          case "wrong schema"
            (exits 2 [ "base.json"; "wrong_schema.json" ] ~says:"schema");
          case "threshold flags rejected"
            (exits 2 [ "base.json"; "base.json"; "--threshold=0.25" ]
               ~says:"usage");
        ] );
    ]
