(* End-to-end integration: the feasibility deciders, the protocols, the
   attack constructions and the workload generators must tell one
   consistent story on a shared random suite.  This is the test-suite
   version of experiments E3/E4/E5. *)

open Rmt_base
open Rmt_knowledge
open Rmt_core
open Rmt_workloads
module Campaign = Rmt_attack.Campaign

let check = Alcotest.(check bool)

let suite =
  (* one fixed, deterministic suite shared by all integration tests *)
  Workload.tightness_suite (Prng.create 20160725) ~count:10 ~n:8

let ad_hoc_suite = Workload.ad_hoc_suite (Prng.create 425) ~count:8 ~n:8

let test_tightness_partial_knowledge () =
  List.iter
    (fun { Workload.label; instance } ->
      match Solvability.partial_knowledge instance with
      | Solvability.Solvable ->
        let r = Campaign.battery Campaign.Pka instance ~x_dealer:1 ~x_fake:2 in
        check
          (label ^ ": solvable => RMT-PKA resilient")
          true (r.delivered = r.trials)
      | Solvability.Unsolvable ->
        (match (Cut.find_rmt_cut instance).cut_found with
         | None -> Alcotest.fail "unsolvable without witness"
         | Some w ->
           let v = Attack.against_rmt_pka instance w ~x0:0 ~x1:1 in
           check
             (label ^ ": cut => attack silences RMT-PKA")
             true
             (v.decision_e = None && v.decision_e' = None))
      | Solvability.Unknown ->
        Alcotest.fail (label ^ ": budget exhausted on a small instance"))
    suite

let test_tightness_ad_hoc () =
  List.iter
    (fun { Workload.label; instance } ->
      match Solvability.ad_hoc instance with
      | Solvability.Solvable ->
        let r = Campaign.battery Campaign.Zcpa instance ~x_dealer:1 ~x_fake:2 in
        check
          (label ^ ": solvable => Z-CPA resilient")
          true (r.delivered = r.trials)
      | Solvability.Unsolvable ->
        (match (Cut.find_rmt_zpp_cut instance).cut_found with
         | None -> Alcotest.fail "unsolvable without witness"
         | Some w ->
           let v = Attack.against_zcpa instance w ~x0:0 ~x1:1 in
           check
             (label ^ ": cut => attack silences Z-CPA")
             true
             (v.decision_e = None && v.decision_e' = None))
      | Solvability.Unknown ->
        Alcotest.fail (label ^ ": budget exhausted on a small instance"))
    ad_hoc_suite

let test_hierarchy_on_suite () =
  (* the solvable classes are nested: Z-CPA-solvable (using only ad hoc
     knowledge) implies RMT-PKA-solvable at the instance's knowledge *)
  List.iter
    (fun { Workload.label; instance } ->
      let z = Zcpa.run instance ~x_dealer:7 in
      let p = Rmt_pka.run instance ~x_dealer:7 in
      if z.decided = Some 7 then
        check (label ^ ": hierarchy") true (p.decided = Some 7))
    suite

let test_full_knowledge_matches_ppa () =
  List.iter
    (fun { Workload.label; instance } ->
      let full = Instance.with_view instance (View.full instance.graph) in
      let feasible = Solvability.partial_knowledge full = Solvability.Solvable in
      let ppa_ok =
        Rmt_protocols.Ppa.solvable full.graph ~structure:full.structure
          ~dealer:full.dealer ~receiver:full.receiver
      in
      check (label ^ ": full-knowledge collapse") true (feasible = ppa_ok);
      if feasible then begin
        let r =
          Rmt_protocols.Ppa.run full.graph ~structure:full.structure
            ~dealer:full.dealer ~receiver:full.receiver ~x_dealer:3
        in
        check (label ^ ": PPA delivers") true (r.decided = Some 3)
      end)
    suite

let test_self_reduction_on_suite () =
  List.iter
    (fun { Workload.label; instance } ->
      let direct = Zcpa.run instance ~x_dealer:4 in
      let sim =
        Zcpa.run ~decider:(Self_reduction.simulated_decider instance) instance
          ~x_dealer:4
      in
      check (label ^ ": reduction agrees") true (direct.decided = sim.decided))
    ad_hoc_suite

(* the curated instance files load and have the feasibility their README
   documents *)
let test_curated_instances () =
  (* the test binary runs somewhere under _build; walk up to the source
     tree's instances/ directory *)
  let dir =
    let rec find base depth =
      let candidate = Filename.concat base "instances" in
      if Sys.file_exists candidate && Sys.is_directory candidate then candidate
      else if depth = 0 then Alcotest.fail "instances/ directory not found"
      else find (Filename.concat base Filename.parent_dir_name) (depth - 1)
    in
    find (Sys.getcwd ()) 8
  in
  let load name =
    match Codec.of_file (Filename.concat dir name) with
    | Ok inst -> inst
    | Error m -> Alcotest.fail (name ^ ": " ^ m)
  in
  let feas inst = Solvability.partial_knowledge inst in
  check "path4 unsolvable" true
    (feas (load "path4_unsolvable.rmt") = Solvability.Unsolvable);
  check "onion solvable" true
    (feas (load "onion_solvable.rmt") = Solvability.Solvable);
  let mesh = load "mesh_showcase.rmt" in
  check "mesh solvable at radius 2" true (feas mesh = Solvability.Solvable);
  check "mesh unsolvable ad hoc" true
    (feas (Instance.with_view mesh (View.ad_hoc mesh.graph))
     = Solvability.Unsolvable);
  let basic = load "figure1_basic.rmt" in
  check "figure-1 instance solvable" true (feas basic = Solvability.Solvable);
  check "and its protocol delivers" true
    ((Zcpa.run basic ~x_dealer:9).decided = Some 9)

(* CLI smoke tests: the installed binary handles the documented
   subcommands without error *)
let test_cli_smoke () =
  let exe =
    (* depending on how the test is invoked, cwd is the project root or a
       directory inside _build: try both layouts at every level *)
    let rec find base depth =
      let candidates =
        [
          Filename.concat base "bin/rmt_cli.exe";
          Filename.concat base "_build/default/bin/rmt_cli.exe";
        ]
      in
      match List.find_opt Sys.file_exists candidates with
      | Some c -> c
      | None ->
        if depth = 0 then
          Alcotest.fail ("rmt_cli.exe not found from " ^ Sys.getcwd ())
        else find (Filename.concat base Filename.parent_dir_name) (depth - 1)
    in
    find (Sys.getcwd ()) 8
  in
  let run args =
    Sys.command (Filename.quote exe ^ " " ^ args ^ " > /dev/null 2>&1")
  in
  Alcotest.(check int) "analyze" 0
    (run "analyze --topology layered:3x2 --receiver 7");
  Alcotest.(check int) "run pka" 0
    (run "run --protocol pka --topology layered:3x2 --receiver 7 --corrupt 1           --strategy value-flip");
  Alcotest.(check int) "run zcpa traced" 0
    (run "run --protocol zcpa --topology complete:5 --trace");
  Alcotest.(check int) "attack" 0 (run "attack --topology path:4");
  let output_of args =
    let out = Filename.temp_file "rmt_cli" ".out" in
    let code =
      Sys.command (Filename.quote exe ^ " " ^ args ^ " > " ^ Filename.quote out)
    in
    let printed = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    (code, String.split_on_char '\n' printed)
  in
  (* nothing is corruptible, so every node is pinned off the cut and the
     searches answer at once: solvable, and radius 0 (which gets no
     prune) is the one radius with a cut *)
  let code, lines = output_of "attack --topology grid:5x6 --adversary thr:0" in
  Alcotest.(check int) "attack, nothing corruptible" 0 code;
  Alcotest.(check (list string)) "attack finds no cut"
    [ "No RMT-cut: this instance is solvable, no attack can succeed."; "" ]
    lines;
  let code, lines = output_of "analyze --topology grid:5x6 --adversary thr:0" in
  Alcotest.(check int) "analyze, nothing corruptible" 0 code;
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (List.mem line lines))
    [
      "RMT-cut (partial knowledge): none (RMT solvable, Thms 3+5)";
      "RMT Z-pp cut (ad hoc):       none (Z-CPA solves this, Thms 7+8)";
      "Minimal uniform view radius: 1";
    ];
  (* a cut search that runs out of budget proves nothing: attack must
     say "unknown", not "solvable".  Three disjoint dealer–receiver
     columns of a 3x10 layered graph, one admissible set each, under full
     knowledge: no two sets cover a separator, so there is no cut, and
     every node is corruptible, so nothing is pruned; the receiver's
     connected sides outnumber the default budget (~2 s) *)
  let g = Rmt_graph.Generators.layered ~width:3 ~depth:10 in
  let column k = Nodeset.of_list (List.init 10 (fun l -> 1 + (3 * l) + k)) in
  let inst =
    Instance.make ~graph:g
      ~structure:
        (Rmt_adversary.Structure.of_sets
           ~ground:(Nodeset.remove 0 (Rmt_graph.Graph.nodes g))
           (List.init 3 column))
      ~view:(View.full g) ~dealer:0 ~receiver:31
  in
  let file = Filename.temp_file "rmt_columns" ".rmt" in
  (match Codec.to_file file inst with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let code, lines = output_of ("attack --instance " ^ Filename.quote file) in
  Sys.remove file;
  Alcotest.(check int) "attack, exhausted search" 0 code;
  Alcotest.(check (list string)) "attack reads the exhausted search as unknown"
    [ "RMT-cut search: unknown (budget exhausted); no attack mounted."; "" ]
    lines;
  Alcotest.(check int) "dot" 0 (run "dot --topology cycle:6");
  Alcotest.(check int) "bad spec fails" 124
    (let c = run "analyze --topology warp:9" in
     if c <> 0 then 124 else 0);
  (* a malformed or negative number in a spec, or a size the generator
     rejects, is a spec error too, never an uncaught exception *)
  List.iter
    (fun spec ->
      Alcotest.(check int) ("bad spec fails: " ^ spec) 124
        (run ("analyze " ^ spec)))
    [ "--topology warp:9"; "--topology grid:3xq"; "--adversary thr:z";
      "--topology cycle:-3"; "--topology cycle:0"; "--knowledge radius:-1";
      "--topology random:6:x"; "--adversary rand:-1:2" ];
  (* so is a [sim] probability outside [0, 1] *)
  List.iter
    (fun flag ->
      Alcotest.(check int) ("bad spec fails: sim " ^ flag) 124
        (run ("sim --topology layered:3x2 --receiver 7 --schedules 1 " ^ flag)))
    [ "--late 3.5"; "--late=-0.1"; "--late nan"; "--loss 1.5"; "--loss=-1";
      "--loss nan" ];
  (* a bad --strategy or --corrupt is a usage error, not a silent
     fallback or an uncaught exception *)
  let run_pka args =
    run ("run --protocol pka --topology layered:3x2 --receiver 7 " ^ args)
  in
  Alcotest.(check int) "unknown strategy rejected" 124
    (run_pka "--corrupt 1 --strategy bogus");
  Alcotest.(check int) "strategy outside the protocol's menu rejected" 124
    (run "run --protocol zcpa --topology layered:3x2 --receiver 7 --corrupt 1 \
          --strategy mimic");
  Alcotest.(check int) "corrupted node outside the graph rejected" 124
    (run_pka "--corrupt 99");
  Alcotest.(check int) "negative corrupted node rejected" 124
    (run_pka "--corrupt=-3");
  Alcotest.(check int) "corrupted dealer rejected" 124 (run_pka "--corrupt 0");
  Alcotest.(check int) "corrupted receiver rejected" 124
    (run_pka "--corrupt 7");
  Alcotest.(check int) "edge-forger runs against pka" 0
    (run_pka "--corrupt 1 --strategy edge-forger");
  Alcotest.(check int) "value-spam runs against zcpa" 0
    (run "run --protocol zcpa --topology layered:3x2 --receiver 7 --corrupt 1 \
          --strategy value-spam");
  (* [rmt run]'s printed output: (exit code, stdout, stderr) *)
  let run_out args =
    let out = Filename.temp_file "rmt_run" ".out"
    and err = Filename.temp_file "rmt_run" ".err" in
    let code =
      Sys.command
        (Filename.quote exe ^ " run " ^ args ^ " > " ^ Filename.quote out
       ^ " 2> " ^ Filename.quote err)
    in
    let read f =
      let s = In_channel.with_open_bin f In_channel.input_all in
      Sys.remove f;
      s
    in
    let stdout = read out in
    (code, stdout, read err)
  in
  (* the result lines, as the parent's private dispatch printed their
     decided, rounds, messages and bits *)
  Alcotest.(check (triple int string string)) "pka result line"
    ( 0,
      "pka: decided 42  correct=true  rounds=6  messages=1350  bits=29052  \
       truncated=false\n",
      "" )
    (run_out
       "--protocol pka --topology layered:3x2 --receiver 7 --corrupt 1 \
        --strategy value-flip");
  Alcotest.(check (triple int string string)) "zcpa result line"
    ( 0,
      "zcpa: decided 42  correct=true  rounds=3  messages=16  bits=16  \
       truncated=false\n",
      "" )
    (run_out "--protocol zcpa --topology complete:5");
  (* every protocol of the table runs, and prints one result line *)
  List.iter
    (fun p ->
      let name = Campaign.protocol_to_string p in
      let code, out, _ =
        run_out
          ("--protocol " ^ name ^ " --topology layered:3x2 --receiver 7 \
            --corrupt 1")
      in
      Alcotest.(check int) (name ^ " exits 0") 0 code;
      match String.split_on_char '\n' out with
      | [ line; "" ] ->
        Alcotest.(check bool) (name ^ " result line") true
          (String.starts_with ~prefix:(name ^ ": decided ") line)
      | _ -> Alcotest.fail (name ^ ": expected one result line, got " ^ out))
    Campaign.protocols;
  (* the rejections keep their messages *)
  let code, out, err =
    run_out
      "--protocol zcpa-sim --topology layered:3x2 --receiver 7 --corrupt 1 \
       --strategy trail-forge"
  in
  Alcotest.(check bool) "unknown strategy exits non-zero" true (code <> 0);
  Alcotest.(check string) "unknown strategy prints no result" "" out;
  Alcotest.(check string) "unknown strategy message"
    "rmt: unknown strategy \"trail-forge\" for this protocol \
     (silent|value-flip|value-spam)\n"
    err;
  let code, out, err =
    run_out "--protocol cert-ppa --topology layered:3x2 --receiver 7 --corrupt 0"
  in
  Alcotest.(check bool) "corrupted dealer exits non-zero" true (code <> 0);
  Alcotest.(check string) "corrupted dealer prints no result" "" out;
  Alcotest.(check string) "corrupted dealer message"
    "rmt: --corrupt 0: corrupted nodes must be graph nodes other than the \
     dealer 0 and the receiver 7\n"
    err

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "tightness partial knowledge" `Slow
            test_tightness_partial_knowledge;
          Alcotest.test_case "tightness ad hoc" `Slow test_tightness_ad_hoc;
          Alcotest.test_case "uniqueness hierarchy" `Quick
            test_hierarchy_on_suite;
          Alcotest.test_case "full knowledge = PPA" `Quick
            test_full_knowledge_matches_ppa;
          Alcotest.test_case "self-reduction" `Slow test_self_reduction_on_suite;
          Alcotest.test_case "curated instances" `Quick test_curated_instances;
          Alcotest.test_case "cli smoke" `Quick test_cli_smoke;
        ] );
    ]
