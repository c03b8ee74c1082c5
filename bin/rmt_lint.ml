(* rmt-lint — typedtree-based determinism & safety analyzer.

   Subcommands:
     check      (default) lint the repository's .cmt files
     paths      Theorem-4 taint audit: sources, sinks, guard status
     graph      dump the cross-module call graph (--dot for GraphViz)
     summaries  dump per-function effect summaries (--json for CI)
     model      dump extracted protocol automaton models (--json for CI)
     explain    print the rationale for one rule
     rules      list all rules

   The analyzer reads the typedtrees that `dune build @check` leaves
   under _build/default, infers per-function effect summaries over the
   whole-program call graph (SCC-ordered, fixpointed on recursive
   cycles), and runs the intraprocedural rules of lib/lint/rules.mli
   plus the summary-store passes R4/R8 (lock discipline), R6 (Domain
   races) and R7 (higher-order-aware Theorem-4 taint), and checks the
   extracted protocol models (R9/R10).  Each run is one pass: it reads
   the .cmt files under _build/default/<DIR> for each DIR and keeps no
   state between runs.  Exit status: 0 when every finding is pinned in
   the baseline and no pin is stale, 1 on new findings or stale pins,
   2 on usage or I/O errors, including a DIR with no analysed unit.

   Examples:
     dune build @check && rmt_lint check --baseline lint-baseline.txt
     rmt_lint check --sarif rmt-lint.sarif --model-out lint-model.json
     rmt_lint paths
     rmt_lint summaries --json Zcpa
     rmt_lint model --json
     rmt_lint model Rmt_pka
     rmt_lint graph --dot | dot -Tsvg > callgraph.svg
     rmt_lint explain R9 *)

open Rmt_lint
open Cmdliner

let build_dir =
  let doc = "Dune build context holding the .cmt files." in
  Arg.(value & opt string "_build/default" & info [ "build-dir" ] ~doc)

let dirs =
  let doc =
    "Source directories to analyze: the .cmt files under \
     BUILD-DIR/$(docv) whose recorded source lies under $(docv).  \
     $(docv) bounds the analysis universe: the call graph, the summary \
     store and the findings all cover exactly these trees.  A $(docv) \
     with no analysed unit is an error (exit 2)."
  in
  Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"DIR" ~doc)

let baseline =
  let doc = "Baseline file of pinned findings (rule + fingerprint)." in
  Arg.(
    value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let json =
  let doc = "Emit the report as JSON on stdout instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let out =
  let doc = "Also write the JSON report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let sarif =
  let doc = "Also write a SARIF 2.1.0 report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let summaries_out =
  let doc = "Also write the effect-summary dump (JSON) to $(docv)." in
  Arg.(
    value
    & opt (some string) None
    & info [ "summaries-out" ] ~docv:"FILE" ~doc)

let model_out =
  let doc =
    "Also write the protocol-model dump (lint-model.json: per-automaton \
     alphabet, handled cases, decision reads, symbolic send bounds) to \
     $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "model-out" ] ~docv:"FILE" ~doc)

let update_baseline =
  let doc =
    "Rewrite the --baseline file to pin exactly the current findings \
     (JUSTIFY placeholders must then be filled in by hand)."
  in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

(* Shared front half: read the typedtrees under each DIR and walk each
   once; [k] gets the per-unit results.  Scan errors exit 2. *)
let with_units build_dir dirs k =
  match Cmt_loader.scan ~build_dir ~dirs with
  | Error e ->
    prerr_endline ("rmt-lint: " ^ e);
    2
  | Ok units -> k (List.map Lint.scanned_of units)

let store_of units = Summary.infer (Lint.graph_of units)

let check_cmd build_dir dirs baseline json out sarif summaries_out model_out
    update =
  with_units build_dir dirs @@ fun units ->
  let store = store_of units and model = Lint.model_of units in
  let findings = Lint.findings_of units store model in
  (match summaries_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Summary.render_json store);
     close_out oc);
  (match model_out with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Model.render_json model);
     close_out oc);
  (match (update, baseline) with
   | true, None ->
     prerr_endline "rmt-lint: --update-baseline requires --baseline";
     2
   | true, Some path ->
     Baseline.save path findings;
     Printf.printf "rmt-lint: wrote %d finding(s) to %s\n"
       (List.length findings) path;
     0
   | false, _ ->
     let entries =
       match baseline with
       | None -> Ok []
       | Some path -> Baseline.load path
     in
     (match entries with
      | Error e ->
        prerr_endline ("rmt-lint: " ^ e);
        2
      | Ok entries ->
        let report =
          Lint.apply_baseline entries (List.length units) findings
        in
        (match out with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           output_string oc (Lint.render_json report);
           close_out oc);
        (match sarif with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           output_string oc (Sarif.render ~store ~entries report);
           close_out oc);
        if json then print_string (Lint.render_json report)
        else print_string (Lint.render_text report);
        (* Stale pins fail the run: a discharged finding still pinned
           in the baseline means the baseline misdescribes the tree. *)
        if report.Lint.fresh = [] && report.Lint.stale = [] then 0 else 1))

let paths_cmd build_dir dirs =
  with_units build_dir dirs @@ fun units ->
  print_string (Taint.audit (store_of units));
  0

let graph_cmd build_dir dirs dot =
  with_units build_dir dirs @@ fun units ->
  let graph = Lint.graph_of units in
  if dot then print_string (Callgraph.to_dot graph)
  else begin
    let fns, edges = Callgraph.stats graph in
    Printf.printf "call graph: %d function(s), %d resolved edge(s)\n" fns
      edges;
    List.iter
      (fun (f : Callgraph.fn_summary) ->
        match Callgraph.callees graph f.fn_name with
        | [] -> ()
        | cs ->
          Printf.printf "%s -> %s\n" f.fn_name (String.concat ", " cs))
      (Callgraph.functions graph)
  end;
  0

let summaries_cmd build_dir dirs json only =
  with_units build_dir dirs @@ fun units ->
  let store = store_of units in
  if json then print_string (Summary.render_json ?only store)
  else print_string (Summary.render_text ?only store);
  0

let model_cmd build_dir dirs json only =
  with_units build_dir dirs @@ fun units ->
  let model = Lint.model_of units in
  (match only with
   | Some name when Model.find model name = None ->
     Printf.eprintf
       "rmt-lint: no automaton matches %S; known protocols: %s\n" name
       (String.concat ", "
          (List.map
             (fun (p : Model.protocol) -> p.Model.p_name)
             model.Model.protocols));
     2
   | _ ->
     if json then print_string (Model.render_json ?only model)
     else print_string (Model.render_text ?only model);
     0)

let explain_cmd rule =
  match Rules.find rule with
  | None ->
    Printf.eprintf "rmt-lint: unknown rule %S; known rules: %s\n" rule
      (String.concat ", " (List.map (fun m -> m.Rules.id) Rules.all));
    2
  | Some m ->
    Printf.printf "%s (%s)\n  %s\n  example: %s\n\n%s\n" m.Rules.id
      m.Rules.name m.Rules.summary m.Rules.example m.Rules.details;
    0

let check_term =
  Term.(
    const check_cmd $ build_dir $ dirs $ baseline $ json $ out $ sarif
    $ summaries_out $ model_out $ update_baseline)

let check =
  let doc = "lint the repository's typedtrees (the default command)" in
  Cmd.v (Cmd.info "check" ~doc) check_term

let paths =
  let doc =
    "audit Theorem-4 taint paths: every adversarial source, every \
     decision sink, and per sanitizer family either 'guarded' or the \
     unguarded source->sink call chain"
  in
  Cmd.v
    (Cmd.info "paths" ~doc)
    Term.(const paths_cmd $ build_dir $ dirs)

let graph =
  let dot =
    let doc = "Emit GraphViz instead of a text adjacency listing." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let doc = "dump the cross-module call graph" in
  Cmd.v
    (Cmd.info "graph" ~doc)
    Term.(const graph_cmd $ build_dir $ dirs $ dot)

let summaries =
  let only =
    let doc =
      "Restrict the dump to one module (function-name prefix or source \
       file module)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"MODULE" ~doc)
  in
  let sdirs =
    let doc = "Source directory to analyze (repeatable)." in
    Arg.(value & opt_all string [ "lib" ] & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "dump per-function effect summaries: mutates/nondet/source/sink \
     bits, sanitizer families reached, lock and spawn effects, \
     locked-only status and higher-order instantiation sets, with a \
     stable fingerprint per function"
  in
  Cmd.v
    (Cmd.info "summaries" ~doc)
    Term.(const summaries_cmd $ build_dir $ sdirs $ json $ only)

let model =
  let only =
    let doc =
      "Restrict the dump to one protocol (automaton name, bare suffix, \
       or module prefix, case-insensitive: `Rmt_pka.automaton', \
       `automaton', `Naive', ...)."
    in
    Arg.(
      value & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)
  in
  let mdirs =
    let doc = "Source directory to analyze (repeatable)." in
    Arg.(value & opt_all string [ "lib" ] & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "dump the extracted protocol automaton models: per automaton the \
     message-constructor alphabet, the handled cases, the mutable state \
     fields the decision reads, round/dedup sensitivity, and the \
     symbolic per-step send bounds the cost-bound test enforces"
  in
  Cmd.v
    (Cmd.info "model" ~doc)
    Term.(const model_cmd $ build_dir $ mdirs $ json $ only)

let explain =
  let doc = "describe one rule and the invariant it protects" in
  let rule =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RULE" ~doc:"Rule identifier, R1..R10.")
  in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const explain_cmd $ rule)

let rules_cmd () =
  List.iter
    (fun m ->
      Printf.printf "%-4s %-22s %s\n     e.g. %s\n" m.Rules.id m.Rules.name
        m.Rules.summary m.Rules.example)
    Rules.all;
  0

let rules =
  let doc = "list all rules" in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const rules_cmd $ const ())

let () =
  let info =
    Cmd.info "rmt_lint" ~version:"%%VERSION%%"
      ~doc:"typedtree-based determinism & safety analyzer for the rmt tree"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default:check_term info
          [ check; paths; graph; summaries; model; explain; rules ]))
