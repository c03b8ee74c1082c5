(* Golden test for the rmt-lint rules.

   The fixture library under fixtures/ compiles one clean and one
   violating module per rule; this test loads their .cmt files, runs the
   full analysis, and compares the normalized finding lines

     <rule> <source basename> <context>

   against expected.txt.  Line numbers and messages are deliberately
   excluded: messages embed printed types, whose rendering may drift
   across compiler versions, while rule/file/context pin down exactly
   which violation fired where. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let () =
  let units =
    match
      Rmt_lint.Cmt_loader.scan ~build_dir:"../.."
        ~dirs:[ "test/lint/fixtures" ]
    with
    | Ok us -> us
    | Error e -> fail "fixture scan failed: %s" e
  in
  if List.length units <> 26 then
    fail "expected 26 fixture units, scanned %d — fixture library changed?"
      (List.length units);
  let findings = Rmt_lint.Lint.analyze units in
  let actual =
    List.map
      (fun (f : Rmt_lint.Finding.t) ->
        Printf.sprintf "%s %s %s" f.rule (Filename.basename f.file) f.context)
      findings
    |> List.sort String.compare
  in
  let expected =
    In_channel.with_open_text "expected.txt" In_channel.input_lines
    |> List.filter (fun l ->
           let l = String.trim l in
           l <> "" && l.[0] <> '#')
    |> List.sort String.compare
  in
  if actual <> expected then begin
    prerr_endline "--- expected (sorted) ---";
    List.iter prerr_endline expected;
    prerr_endline "--- actual (sorted) ---";
    List.iter prerr_endline actual;
    fail "lint fixture golden mismatch"
  end;
  (* The clean fixtures (and the repaired vacuous-fullness copy) must
     contribute nothing at all. *)
  List.iter
    (fun (f : Rmt_lint.Finding.t) ->
      let base = Filename.basename f.file in
      if
        Filename.check_suffix base "_clean.ml"
        || Filename.check_suffix base "_fixed.ml"
      then fail "clean fixture %s produced a finding: %s" base f.message)
    findings;
  (* Interprocedural findings must carry their witnessing call chain. *)
  List.iter
    (fun (f : Rmt_lint.Finding.t) ->
      if String.equal f.rule "R7" && f.chain = [] then
        fail "R7 finding in %s has no source->sink call chain" f.file)
    findings;
  (* The reverted PR 2 bug must be caught for exactly the right reason:
     the positive-connectivity family, not the cover family. *)
  (match
     List.find_opt
       (fun (f : Rmt_lint.Finding.t) ->
         String.equal f.rule "R7"
         && Filename.basename f.file = "r7_vacuous.ml")
       findings
   with
   | None -> fail "vacuous-fullness fixture r7_vacuous.ml was not flagged"
   | Some f ->
     let mentions_conn =
       let sub = "positive-connectivity" in
       let n = String.length f.message and m = String.length sub in
       let rec at i = i + m <= n && (String.sub f.message i m = sub || at (i + 1)) in
       at 0
     in
     if not mentions_conn then
       fail "r7_vacuous finding does not cite the connectivity family: %s"
         f.message);
  Printf.printf "lint golden: %d findings match expected.txt\n"
    (List.length findings)
