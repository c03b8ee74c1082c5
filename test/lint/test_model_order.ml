(* Order-independence of the protocol-model assembly (qcheck).

   Model.assemble runs over per-unit fragments in whatever order the
   caller supplies them — so the assembled model (and the
   lint-model.json the CI uploads) must not depend on that order.  The
   property mirrors test_summary_order: extract the real fixture
   library once, shuffle the unit_model list, and require a single
   Model.fingerprint plus identical rendered findings. *)

open Rmt_lint

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

(* Deterministic shuffle driven by qcheck-generated swap indices — the
   test stays reproducible under qcheck's own seed reporting. *)
let shuffle swaps xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n > 1 then
    List.iter
      (fun (i, j) ->
        let i = i mod n and j = j mod n in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t)
      swaps;
  Array.to_list a

let units =
  match Cmt_loader.scan ~build_dir:"../.." ~dirs:[ "test/lint/fixtures" ] with
  | Ok us -> us
  | Error e -> fail "fixture scan failed: %s" e

let fragments =
  List.map
    (fun (u : Cmt_loader.unit_info) ->
      Model.extract ~source:u.Cmt_loader.source u.Cmt_loader.structure)
    units

let reference = Model.assemble fragments
let reference_fp = Model.fingerprint reference

let finding_lines (m : Model.t) =
  List.map Finding.to_text m.Model.findings

let reference_findings = finding_lines reference

let assemble_test =
  QCheck.Test.make ~count:50
    ~name:"Model.assemble is unit-order independent"
    QCheck.(list_of_size (Gen.int_range 1 20) (pair small_nat small_nat))
    (fun swaps ->
      let m = Model.assemble (shuffle swaps fragments) in
      String.equal (Model.fingerprint m) reference_fp
      && List.equal String.equal (finding_lines m) reference_findings)

let () =
  (* The fixture library must exercise both rule families before the
     shuffle property means anything. *)
  let rules =
    List.sort_uniq String.compare
      (List.map (fun (f : Finding.t) -> f.Finding.rule) reference.Model.findings)
  in
  if not (List.mem "R9" rules && List.mem "R10" rules) then
    fail "fixture model lacks R9/R10 findings (got: %s)"
      (String.concat ", " rules);
  if
    not
      (List.exists
         (fun (p : Model.protocol) -> p.Model.p_init.Model.b_unbounded)
         reference.Model.protocols)
  then fail "expected an unbounded fixture automaton (r10_bad)";
  QCheck.Test.check_exn assemble_test;
  Printf.printf
    "model order: %d-protocol model is unit-order independent (%s)\n"
    (List.length reference.Model.protocols)
    reference_fp
