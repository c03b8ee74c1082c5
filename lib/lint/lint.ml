type scanned_unit = {
  su_source : string;
  su_has_mli : bool;
  su_intra : Finding.t list;
  su_summary : Callgraph.unit_summary;
  su_model : Model.unit_model;
  su_cached : bool;
}

type cache_stats = { lookups : int; hits : int }

let hit_rate s =
  if s.lookups = 0 then 0.0
  else 100.0 *. float_of_int s.hits /. float_of_int s.lookups

type report = {
  scanned : int;
  findings : Finding.t list;
  fresh : Finding.t list;
  stale : Baseline.entry list;
  cache : cache_stats;
}

let structural (u : Cmt_loader.unit_info) =
  Rules.check_structure ~file:u.Cmt_loader.source u.Cmt_loader.structure

let unit_of_info (u : Cmt_loader.unit_info) =
  {
    su_source = u.Cmt_loader.source;
    su_has_mli = u.Cmt_loader.has_mli;
    su_intra = structural u;
    su_summary =
      Callgraph.summarize ~source:u.Cmt_loader.source u.Cmt_loader.structure;
    su_model =
      Model.extract ~source:u.Cmt_loader.source u.Cmt_loader.structure;
    su_cached = false;
  }

(* Digest-first traversal: unchanged cmts are never parsed.  [dirs]
   bounds the analysis universe — the graph the summary store is built
   over is exactly the units whose recorded source lives under one of
   [dirs].  (Scoping the graph, not just the reporting, is load-bearing
   for R7: a test that exercises a deliberately-unguarded protocol next
   to a solvability assertion must not launder its sanitizer into the
   protocol's instantiation sets.)  The third component is the combined
   digest key of the in-scope units, under which the summary store
   itself is cached. *)
let scan_cached ~cache ~build_dir ~dirs =
  match Cmt_loader.cmt_paths ~build_dir with
  | Error e -> Error e
  | Ok paths ->
    let units = ref [] in
    let errors = ref [] in
    let lookups = ref 0 in
    let hits = ref 0 in
    let digests = Buffer.create 4096 in
    let keep ~path ~digest su =
      if Cmt_loader.under_one_of dirs su.su_source then begin
        Buffer.add_string digests path;
        Buffer.add_char digests ':';
        Buffer.add_string digests digest;
        Buffer.add_char digests '\n';
        units := su :: !units
      end
    in
    List.iter
      (fun path ->
        let digest = Digest.to_hex (Digest.file path) in
        incr lookups;
        match Cache.lookup cache ~cmt_path:path ~digest with
        | Some Cache.Skipped -> incr hits
        | Some (Cache.Analyzed a) ->
          incr hits;
          keep ~path ~digest
            {
              su_source = a.source;
              su_has_mli = a.has_mli;
              su_intra = a.intra;
              su_summary = a.summary;
              su_model = a.model;
              su_cached = true;
            }
        | None ->
          (match Cmt_loader.read_cmt path with
           | Error e -> errors := e :: !errors
           | Ok None -> Cache.store cache ~cmt_path:path ~digest Cache.Skipped
           | Ok (Some u) ->
             let su = unit_of_info u in
             Cache.store cache ~cmt_path:path ~digest
               (Cache.Analyzed
                  {
                    source = su.su_source;
                    has_mli = su.su_has_mli;
                    intra = su.su_intra;
                    summary = su.su_summary;
                    model = su.su_model;
                  });
             keep ~path ~digest su))
      paths;
    (match !errors with
     | e :: _ -> Error e
     | [] ->
       let units =
         List.sort
           (fun a b -> String.compare a.su_source b.su_source)
           !units
       in
       let key =
         Digest.to_hex (Digest.string (Buffer.contents digests))
       in
       Ok (units, { lookups = !lookups; hits = !hits }, key))

let graph_of units = Callgraph.build (List.map (fun u -> u.su_summary) units)

(* The whole-program protocol model: pure data over the cached per-unit
   fragments, so it reruns on the warm path without touching a
   typedtree. *)
let model_of units = Model.assemble (List.map (fun u -> u.su_model) units)

(* The summary store, cached whole under the combined cmt digest: a
   warm run with no source changes skips all three fixpoints and only
   recomputes the cheap protected-global index. *)
let store_of ~cache ~key graph =
  match Cache.lookup_summaries cache ~key with
  | Some effs -> (Summary.of_effects graph effs, true)
  | None ->
    let store = Summary.infer graph in
    Cache.store_summaries cache ~key (Summary.all store);
    (store, false)

(* Intraprocedural findings (cached per unit) + the filesystem half of
   R5 + the interprocedural passes (R4/R8 Lock, R6 Race, R7 Taint) as
   clients of the summary store + the protocol-model passes (R9/R10). *)
let findings_of ?(require_mli = true) units store =
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
  let model = (model_of units).Model.findings in
  intra @ inter @ model |> List.sort Finding.compare

let analyze ?require_mli units =
  let units = List.map unit_of_info units in
  findings_of ?require_mli units (Summary.infer (graph_of units))

let no_cache_stats = { lookups = 0; hits = 0 }

let apply_baseline ?(cache = no_cache_stats) entries scanned findings =
  let fresh, stale = Baseline.partition entries findings in
  { scanned; findings; fresh; stale; cache }

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
  if r.cache.lookups > 0 then
    Buffer.add_string buf
      (Printf.sprintf "rmt-lint: cache %d/%d cmt(s) reused (%.1f%%)\n"
         r.cache.hits r.cache.lookups (hit_rate r.cache));
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
     \  \"cache\": {\"lookups\": %d, \"hits\": %d},\n\
     \  \"findings\": %s,\n\
     \  \"fresh\": %s,\n\
     \  \"stale_baseline\": [%s]\n\
     }\n"
    r.scanned r.cache.lookups r.cache.hits
    (Finding.list_to_json r.findings)
    (Finding.list_to_json r.fresh)
    (String.concat ", " (List.map stale_json r.stale))
