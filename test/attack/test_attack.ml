(* Tests for the adversarial fuzzing engine (lib/attack): program
   serialization, generated-attack safety (Theorem 4 as a property),
   campaign classification over the checked-in instances, delta-debugging
   shrinking, and reproducer replay. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_attack

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

let instances_dir = "../../instances"

(* The campaign seed documented in EXPERIMENTS.md: every assertion below
   about campaign outcomes is reproducible with it. *)
let campaign_seed = 2016

let repo_instances () =
  Sys.readdir instances_dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> Alcotest.failf "cannot load %s: %s" f e)

(* ------------------------------------------------------------------ *)
(* Program serialization                                               *)
(* ------------------------------------------------------------------ *)

let test_program_roundtrip () =
  let p =
    Program.make ~seed:77
      [
        {
          Program.node = 2;
          base = Program.Drop 0.5;
          injects = [ Program.Flip_value 9; Program.Lie_topology ];
        };
        {
          Program.node = 5;
          base = Program.Crash_after 1;
          injects = [ Program.Spam { spam_seed = 3; rounds = 2 } ];
        };
        { Program.node = 1; base = Program.Silent; injects = [] };
      ]
  in
  (match Program.of_lines (Program.to_lines p) with
   | Ok p' -> check "roundtrip" true (Program.equal p p')
   | Error e -> Alcotest.fail e);
  check "sorted by node" true
    (List.map (fun np -> np.Program.node) p.Program.nodes = [ 1; 2; 5 ]);
  check "corrupted set" true (Nodeset.equal (Program.corrupted p) (ns [ 1; 2; 5 ]))

let test_program_roundtrip_random =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let g = Generators.layered ~width:3 ~depth:2 in
    let inst =
      Instance.ad_hoc_of ~graph:g
        ~structure:(Builders.global_threshold g ~dealer:0 1)
        ~dealer:0 ~receiver:(Graph.num_nodes g - 1)
    in
    Strategy_gen.random rng inst ~x_dealer:7 ~x_fake:8
  in
  let arb =
    QCheck.make ~print:(fun p -> Format.asprintf "%a" Program.pp p) gen
  in
  QCheck.Test.make ~count:100 ~name:"program to_lines/of_lines roundtrip" arb
    (fun p ->
      match Program.of_lines (Program.to_lines p) with
      | Ok p' -> Program.equal p p'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* mimic_honest single-run guard                                       *)
(* ------------------------------------------------------------------ *)

let test_mimic_reuse_raises () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~dealer:0 ~receiver:(Graph.num_nodes g - 1)
  in
  let auto = Rmt_core.Rmt_pka.automaton inst ~x_dealer:7 in
  let strategy = Rmt_net.Byzantine.mimic_honest (ns [ 1 ]) auto in
  let run () =
    ignore
      (Rmt_net.Engine.run ~graph:inst.Instance.graph ~adversary:strategy auto)
  in
  run ();
  (* second run must be detected, not silently replay stale state *)
  (try
     run ();
     Alcotest.fail "strategy reuse across runs was not detected"
   with Invalid_argument _ -> ());
  (* a fresh strategy works fine *)
  let fresh = Rmt_net.Byzantine.mimic_honest (ns [ 1 ]) auto in
  ignore (Rmt_net.Engine.run ~graph:inst.Instance.graph ~adversary:fresh auto)

(* ------------------------------------------------------------------ *)
(* Generated attacks never break safety (Theorem 4 as a property)      *)
(* ------------------------------------------------------------------ *)

(* shared across suites: test/gen *)
let arb_instance_and_seed = Rmt_test_gen.Gen.arb_instance_and_seed

(* [Rmt_pka.msg_size] against the size formula written out, on every
   message delivered in the PKA battery of a random instance — honest
   reports, and the forged, phantom and spam reports of the menu's
   topology-liar, edge-forger, fictitious-node and fuzz entries. *)
let reference_size (m : Rmt_core.Rmt_pka.msg) =
  List.length m.trail
  +
  match m.payload with
  | Rmt_core.Rmt_pka.Value _ -> 1
  | Info r ->
    1 + Graph.num_nodes r.gamma
    + (2 * Graph.num_edges r.gamma)
    + Util.sum_by
        (fun s -> 1 + Nodeset.size s)
        (Structure.maximal_sets r.zeta)

let msg_size_is_reference =
  QCheck.Test.make ~count:30
    ~name:"RMT-PKA msg_size = reference formula on every delivered message"
    Rmt_test_gen.Gen.arb_instance (fun (inst : Instance.t) ->
      List.for_all
        (fun (_, program) ->
          let ok = ref true in
          ignore
            (Rmt_net.Engine.run ~size_of:Rmt_core.Rmt_pka.msg_size
               ~on_deliver:(fun ~round:_ ~src:_ ~dst:_ m ->
                 if Rmt_core.Rmt_pka.msg_size m <> reference_size m then
                   ok := false)
               ~graph:inst.graph
               ~adversary:(Strategy_gen.compile_pka program inst ~x_dealer:7)
               (Rmt_core.Rmt_pka.automaton inst ~x_dealer:7));
          !ok)
        (Campaign.battery_programs Campaign.Pka inst ~x_fake:8))

let never_wrong_on_solvable protocol name =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "%s: no generated attack is ever wrong when solvable"
         name)
    arb_instance_and_seed
    (fun (inst, seed) ->
      if Campaign.solvability protocol inst <> Rmt_core.Solvability.Solvable
      then true
      else begin
        let rng = Prng.create seed in
        let ok = ref true in
        for _ = 1 to 3 do
          let p = Strategy_gen.random rng inst ~x_dealer:7 ~x_fake:8 in
          let r = Campaign.execute protocol inst ~x_dealer:7 p in
          (match r.Campaign.verdict with
           | Campaign.Violated _ -> ok := false
           | Campaign.Delivered | Campaign.Silenced -> ())
        done;
        !ok
      end)

(* ------------------------------------------------------------------ *)
(* Campaigns over the checked-in instances                             *)
(* ------------------------------------------------------------------ *)

let test_campaign_acceptance () =
  let found_cut_attack = ref false in
  List.iter
    (fun (name, inst) ->
      let r =
        Campaign.run ~seed:campaign_seed ~attacks:40 Campaign.Pka inst
      in
      check
        (Printf.sprintf "%s: attacks executed" name)
        true
        (r.Campaign.trials = 40);
      (match r.Campaign.solvability with
       | Rmt_core.Solvability.Solvable ->
         check
           (Printf.sprintf "%s: no safety violation (Thm 4)" name)
           true
           (r.Campaign.safety_violations = []);
         check
           (Printf.sprintf "%s: no liveness loss (Thm 5)" name)
           true
           (r.Campaign.liveness_lost = 0)
       | _ ->
         check
           (Printf.sprintf "%s: unsafe decisions impossible (Thm 4)" name)
           true
           (r.Campaign.safety_violations = [] && r.Campaign.violated = 0);
         if r.Campaign.silenced_examples <> [] then
           found_cut_attack := true))
    (repo_instances ());
  (* path4_unsolvable must yield at least one genuine silencing attack *)
  check "a cut-exploiting attack was found on an unsolvable instance" true
    !found_cut_attack

let test_campaign_deterministic () =
  let _, inst = List.hd (repo_instances ()) in
  let run () =
    Campaign.run ~seed:campaign_seed ~attacks:20 Campaign.Pka inst
  in
  let a = run () and b = run () in
  check "same report" true (a = b)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Path 0-1-2-3 with pendant nodes 4 (off 1) and 5 (off 2); any single
   corrupted middle node silences the receiver, and the pendants are
   removable noise the shrinker must strip. *)
let pendant_path_instance () =
  let g =
    Graph.of_edges [ (0, 1); (1, 2); (2, 3); (1, 4); (2, 5) ]
  in
  let ground = ns [ 1; 2; 3; 4; 5 ] in
  let structure =
    Structure.of_sets ~ground
      [ ns [ 1 ]; ns [ 2 ]; ns [ 3 ]; ns [ 4 ]; ns [ 5 ] ]
  in
  Instance.make ~graph:g ~structure ~view:(View.ad_hoc g) ~dealer:0
    ~receiver:3

let noisy_silencing_program =
  Program.make ~seed:91
    [
      {
        Program.node = 1;
        base = Program.Silent;
        injects =
          [ Program.Lie_topology; Program.Spam { spam_seed = 5; rounds = 2 } ];
      };
    ]

let test_shrink_minimal () =
  let inst = pendant_path_instance () in
  let p = noisy_silencing_program in
  let r = Campaign.execute Campaign.Pka inst ~x_dealer:7 p in
  check "starting attack silences" true (r.Campaign.verdict = Campaign.Silenced);
  let keep =
    Shrink.keep_verdict Campaign.Pka ~x_dealer:7 ~verdict:Campaign.Silenced
  in
  let inst', p' = Shrink.minimize ~keep inst p in
  check "shrinks to <= 4 nodes" true (Instance.num_nodes inst' <= 4);
  check "pendants removed" true
    (not
       (Graph.mem_node 4 inst'.Instance.graph
       || Graph.mem_node 5 inst'.Instance.graph));
  check "single corrupted node" true
    (Nodeset.size (Program.corrupted p') = 1);
  check "injections stripped" true (p'.Program.nodes <> []
    && (List.hd p'.Program.nodes).Program.injects = []);
  check "still silences" true (keep inst' p');
  (* determinism: shrinking again lands on the identical minimum *)
  let inst'', p'' = Shrink.minimize ~keep inst p in
  check "deterministic instance" true
    (Graph.equal inst'.Instance.graph inst''.Instance.graph);
  check "deterministic program" true (Program.equal p' p'')

let test_shrink_preserves_predicate () =
  (* on a solvable instance, shrinking a Delivered run stays Delivered *)
  let _, inst =
    List.find
      (fun (_, i) ->
        Campaign.solvability Campaign.Pka i = Rmt_core.Solvability.Solvable)
      (repo_instances ())
  in
  let rng = Prng.create 4 in
  let p = Strategy_gen.random rng inst ~x_dealer:7 ~x_fake:8 in
  let r = Campaign.execute Campaign.Pka inst ~x_dealer:7 p in
  if
    r.Campaign.verdict = Campaign.Delivered
    && not (Nodeset.is_empty (Program.corrupted p))
  then begin
    let keep =
      Shrink.keep_verdict Campaign.Pka ~x_dealer:7
        ~verdict:Campaign.Delivered
    in
    let inst', p' = Shrink.minimize ~budget:120 ~keep inst p in
    check "shrunk pair still delivers" true (keep inst' p');
    check "never grows" true
      (Program.size p' + Instance.num_nodes inst'
      <= Program.size p + Instance.num_nodes inst)
  end

(* ------------------------------------------------------------------ *)
(* Receiver regression caught by the campaign engine                   *)
(* ------------------------------------------------------------------ *)

(* The FUZZ campaign's first genuine catch (seed 2016, 500 programs on
   mesh_showcase): a silent relay spamming structurally random garbage
   made RMT-PKA output the spammed value.  The receiver's subset search
   pruned the spammer itself out of V_M, the claimed graph G_M lost every
   D–R path, the "all D–R paths of G_M carry x" fullness check became
   vacuously true, and the cover search had no certified honest component
   left to veto the decision.  The minimal reproducer below is the
   delta-debugged output of the campaign; the fixed receiver (which
   rejects message sets whose claimed graph disconnects D from R) must
   deliver the dealer's value.  See DESIGN.md §5. *)
let test_vacuous_fullness_regression () =
  let g =
    Graph.of_edges
      [
        (0, 1); (0, 4); (1, 2); (1, 5); (2, 3); (2, 6); (3, 7); (4, 5);
        (4, 8); (5, 6); (5, 9); (6, 7); (6, 10); (7, 11); (8, 9); (9, 10);
        (10, 11);
      ]
  in
  let ground = ns [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ] in
  let structure =
    Structure.of_sets ~ground [ ns [ 5 ]; ns [ 6 ]; ns [ 7; 8 ] ]
  in
  let inst =
    Instance.make ~graph:g ~structure ~view:(View.radius 2 g) ~dealer:0
      ~receiver:11
  in
  check "instance solvable" true
    (Campaign.solvability Campaign.Pka inst = Rmt_core.Solvability.Solvable);
  let p =
    Program.make ~seed:869326885
      [
        {
          Program.node = 7;
          base = Program.Silent;
          injects = [ Program.Spam { spam_seed = 421277; rounds = 4 } ];
        };
      ]
  in
  check "corruption admissible" true
    (Instance.admissible inst (Program.corrupted p));
  let r = Campaign.execute Campaign.Pka inst ~x_dealer:42 p in
  check "fixed receiver delivers" true
    (r.Campaign.verdict = Campaign.Delivered)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let test_replay_roundtrip () =
  let inst = pendant_path_instance () in
  let keep =
    Shrink.keep_verdict Campaign.Pka ~x_dealer:7 ~verdict:Campaign.Silenced
  in
  let inst', p' = Shrink.minimize ~keep inst noisy_silencing_program in
  let direct, direct_trace =
    Campaign.execute_traced Campaign.Pka inst' ~x_dealer:7 p'
  in
  let repro =
    Replay.make ~expected:direct.Campaign.verdict ~protocol:Campaign.Pka
      ~x_dealer:7 inst' p'
  in
  let text =
    match Replay.to_string repro with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Replay.of_string text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    check "protocol survives" true (parsed.Replay.protocol = Campaign.Pka);
    check "x_dealer survives" true (parsed.Replay.x_dealer = 7);
    check "program survives" true (Program.equal parsed.Replay.program p');
    let replayed, replay_trace = Replay.replay parsed in
    check "identical verdict" true
      (replayed.Campaign.verdict = direct.Campaign.verdict);
    check "recorded verdict matches" true
      (Replay.verdict_matches parsed replayed);
    check "identical trace" true (replay_trace = direct_trace)

let test_replay_file () =
  let inst = pendant_path_instance () in
  let repro =
    Replay.make ~protocol:Campaign.Pka ~x_dealer:7 inst
      noisy_silencing_program
  in
  let path = Filename.temp_file "rmt_repro" ".rmt" in
  (match Replay.to_file path repro with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Replay.of_file path with
   | Ok parsed ->
     let r, _ = Replay.replay parsed in
     check "file replay silences" true
       (r.Campaign.verdict = Campaign.Silenced)
   | Error e -> Alcotest.fail e);
  Sys.remove path

(* An attack-node id must name a node of the instance graph: a negative
   or absent id is a parse error, not an exception at execution time. *)
let test_replay_rejects_node node_line () =
  let instance_text =
    In_channel.with_open_text
      (Filename.concat instances_dir "figure1_basic.rmt")
      In_channel.input_all
  in
  let text =
    String.concat "\n"
      [ "protocol pka"; "value 7"; "attack-seed 1"; node_line; instance_text ]
  in
  match Replay.of_string text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "accepted %S" node_line
  | exception e ->
    Alcotest.failf "%S raised %s" node_line (Printexc.to_string e)

(* A trailing comment is dropped on every kind of line: the reproducer
   with notes parses to the same reproducer as the one without. *)
let test_replay_trailing_comments () =
  let instance_text =
    In_channel.with_open_text
      (Filename.concat instances_dir "figure1_basic.rmt")
      In_channel.input_all
  in
  let parse lines =
    match Replay.of_string (String.concat "\n" (lines @ [ instance_text ])) with
    | Ok r -> r
    | Error e -> Alcotest.failf "rejected: %s" e
  in
  let plain =
    parse
      [ "protocol pka"; "value 7"; "attack-seed 1"; "attack-node 1 honest flip:80" ]
  in
  let noted =
    parse
      [
        "protocol pka  # the raw protocol";
        "value 7 # dealer's value";
        "attack-seed 1";
        "attack-node 1 honest flip:80  # note";
      ]
  in
  check "protocol survives" true (noted.Replay.protocol = plain.Replay.protocol);
  check "value survives" true (noted.Replay.x_dealer = plain.Replay.x_dealer);
  check "program survives" true
    (Program.equal noted.Replay.program plain.Replay.program)

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "attack"
    [
      ( "program",
        [
          Alcotest.test_case "roundtrip" `Quick test_program_roundtrip;
          qt test_program_roundtrip_random;
        ] );
      ( "byzantine",
        [ Alcotest.test_case "mimic reuse raises" `Quick test_mimic_reuse_raises ] );
      ( "safety",
        [
          qt (never_wrong_on_solvable Campaign.Pka "RMT-PKA");
          qt (never_wrong_on_solvable Campaign.Ppa "PPA");
          qt (never_wrong_on_solvable Campaign.Zcpa "Z-CPA");
        ] );
      ("accounting", [ qt msg_size_is_reference ]);
      ( "campaign",
        [
          Alcotest.test_case "acceptance over instances/" `Quick
            test_campaign_acceptance;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimal reproducer" `Quick test_shrink_minimal;
          Alcotest.test_case "predicate preserved" `Quick
            test_shrink_preserves_predicate;
        ] );
      ( "regression",
        [
          Alcotest.test_case "vacuous-fullness (spam) reproducer" `Quick
            test_vacuous_fullness_regression;
        ] );
      ( "replay",
        [
          Alcotest.test_case "roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "file io" `Quick test_replay_file;
          Alcotest.test_case "attack node absent from the graph" `Quick
            (test_replay_rejects_node "attack-node 999 silent");
          Alcotest.test_case "negative attack node" `Quick
            (test_replay_rejects_node "attack-node -3 silent");
          Alcotest.test_case "trailing comments" `Quick
            test_replay_trailing_comments;
        ] );
    ]
