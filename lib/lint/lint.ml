type scanned_unit = {
  su_source : string;
  su_has_mli : bool;
  su_intra : Finding.t list;
  su_summary : Callgraph.unit_summary;
  su_model : Model.unit_model;
}

type report = {
  scanned : int;
  findings : Finding.t list;
  fresh : Finding.t list;
  stale : Baseline.entry list;
}

(* Everything later passes need from a unit, read while its typedtree is
   loaded: the structural rules, the call-graph summary and the model
   extraction each walk the tree once, and nothing walks it again. *)
let scanned_of (u : Cmt_loader.unit_info) =
  let source = u.Cmt_loader.source and str = u.Cmt_loader.structure in
  {
    su_source = source;
    su_has_mli = u.Cmt_loader.has_mli;
    su_intra = Rules.check_structure ~file:source str;
    su_summary = Callgraph.summarize ~source str;
    su_model = Model.extract ~source str;
  }

let graph_of units = Callgraph.build (List.map (fun u -> u.su_summary) units)
let model_of units = Model.assemble (List.map (fun u -> u.su_model) units)

(* Intraprocedural findings + the filesystem half of R5 + the
   interprocedural passes (R4/R8 Lock, R6 Race, R7 Taint) as clients of
   the summary store + the protocol-model passes (R9/R10). *)
let findings_of ?(require_mli = true) units store (model : Model.t) =
  let intra =
    List.concat_map
      (fun su ->
        if require_mli && not su.su_has_mli then
          Finding.make ~rule:"R5" ~file:su.su_source
            "module has no .mli interface; determinism contracts must be \
             documented and representations kept private"
          :: su.su_intra
        else su.su_intra)
      units
  in
  let inter = Lock.analyze store @ Race.analyze store @ Taint.analyze store in
  intra @ inter @ model.Model.findings |> List.sort Finding.compare

let analyze ?require_mli units =
  let units = List.map scanned_of units in
  findings_of ?require_mli units
    (Summary.infer (graph_of units))
    (model_of units)

let apply_baseline entries scanned findings =
  let fresh, stale = Baseline.partition entries findings in
  { scanned; findings; fresh; stale }

let render_text r =
  let buf = Buffer.create 512 in
  List.iter
    (fun f -> Buffer.add_string buf (Finding.to_text f ^ "\n"))
    r.fresh;
  List.iter
    (fun (e : Baseline.entry) ->
      Buffer.add_string buf
        (Printf.sprintf
           "error: stale baseline entry %s %s %s — the pinned finding is \
            discharged; remove the line from the baseline\n"
           e.rule e.fingerprint e.file))
    r.stale;
  let baselined = List.length r.findings - List.length r.fresh in
  Buffer.add_string buf
    (Printf.sprintf
       "rmt-lint: %d unit(s) scanned, %d finding(s) (%d baselined, %d new)\n"
       r.scanned
       (List.length r.findings)
       baselined
       (List.length r.fresh));
  Buffer.contents buf

let render_json r =
  let stale_json (e : Baseline.entry) =
    Printf.sprintf
      "{\"rule\":\"%s\",\"fingerprint\":\"%s\",\"file\":\"%s\"}"
      (Finding.json_escape e.rule)
      (Finding.json_escape e.fingerprint)
      (Finding.json_escape e.file)
  in
  Printf.sprintf
    "{\n\
     \  \"scanned\": %d,\n\
     \  \"findings\": %s,\n\
     \  \"fresh\": %s,\n\
     \  \"stale_baseline\": [%s]\n\
     }\n"
    r.scanned
    (Finding.list_to_json r.findings)
    (Finding.list_to_json r.fresh)
    (String.concat ", " (List.map stale_json r.stale))
