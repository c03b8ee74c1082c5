(* Tests for the Section 5 machinery: basic instances (Figure 1), the
   simulation-based decision protocol (Theorem 9), minimal knowledge, the
   attack-battery counts, and the workload generators. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list
let dec = Alcotest.(option int)

(* the value menu against one corrupted set, compiled for Z-CPA *)
let value_attacks inst ~x_dealer ~x_fake corrupted =
  List.map
    (fun (label, program) ->
      (label, Strategy_gen.compile_zcpa program inst ~x_dealer))
    (Strategy_gen.value_menu inst.graph ~x_fake corrupted)

(* ------------------------------------------------------------------ *)
(* Basic instances                                                     *)
(* ------------------------------------------------------------------ *)

let test_basic_graph_shape () =
  let g = Self_reduction.basic_graph ~dealer:0 ~receiver:9 ~middle:(ns [ 2; 4; 6 ]) in
  check_int "nodes" 5 (Graph.num_nodes g);
  check_int "edges" 6 (Graph.num_edges g);
  check "no direct edge" false (Graph.mem_edge 0 9 g);
  check "wired" true (Graph.mem_edge 0 4 g && Graph.mem_edge 4 9 g)

let test_basic_graph_validation () =
  check "empty middle rejected" true
    (try
       ignore (Self_reduction.basic_graph ~dealer:0 ~receiver:1 ~middle:Nodeset.empty);
       false
     with Invalid_argument _ -> true);
  check "overlap rejected" true
    (try
       ignore (Self_reduction.basic_graph ~dealer:0 ~receiver:1 ~middle:(ns [ 1 ]));
       false
     with Invalid_argument _ -> true)

let test_basic_solvable_criterion () =
  let middle = ns [ 1; 2; 3 ] in
  let z1 = Structure.of_sets ~ground:middle [ ns [ 1 ] ] in
  check "one corruptible of three" true
    (Self_reduction.basic_solvable ~middle ~structure:z1);
  let z2 = Structure.of_sets ~ground:middle [ ns [ 1; 2 ]; ns [ 3 ] ] in
  check "two sets covering middle" false
    (Self_reduction.basic_solvable ~middle ~structure:z2);
  let z3 = Structure.threshold ~ground:middle 1 in
  check "threshold 1 of 3" true
    (Self_reduction.basic_solvable ~middle ~structure:z3);
  let z4 = Structure.threshold ~ground:(ns [ 1; 2 ]) 1 in
  check "threshold 1 of 2" false
    (Self_reduction.basic_solvable ~middle:(ns [ 1; 2 ]) ~structure:z4)

let test_basic_solvable_is_q2 () =
  (* the basic-instance criterion is exactly the classical Q2 condition on
     the middle set *)
  let rng = Prng.create 5 in
  for _ = 1 to 50 do
    let m = 2 + Prng.int rng 4 in
    let middle = Nodeset.range 1 (m + 1) in
    let sets =
      List.init (1 + Prng.int rng 3) (fun _ ->
          Prng.sample rng middle (1 + Prng.int rng m))
    in
    let structure = Structure.of_sets ~ground:middle sets in
    check "basic_solvable = Q2" true
      (Self_reduction.basic_solvable ~middle ~structure
      = Structure.satisfies_qk structure middle 2)
  done

(* the closed-form criterion agrees with the Z-pp cut decider *)
let qcheck_basic_solvable =
  QCheck.Test.make ~count:40 ~name:"basic_solvable = no Z-pp cut"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let m = 2 + Prng.int rng 4 in
      let middle = Nodeset.range 1 (m + 1) in
      let sets =
        List.init (1 + Prng.int rng 3) (fun _ ->
            Prng.sample rng middle (1 + Prng.int rng m))
      in
      let structure = Structure.of_sets ~ground:middle sets in
      let inst =
        Self_reduction.basic_instance ~dealer:0 ~receiver:(m + 1) ~middle
          ~structure
      in
      Self_reduction.basic_solvable ~middle ~structure
      = Cut.absent_certainly (Cut.find_rmt_zpp_cut inst))

(* ------------------------------------------------------------------ *)
(* The simulated decider (Theorem 9)                                   *)
(* ------------------------------------------------------------------ *)

let layered3 =
  let g = Generators.layered ~width:3 ~depth:2 in
  Instance.ad_hoc_of ~graph:g
    ~structure:(Builders.global_threshold g ~dealer:0 1)
    ~dealer:0 ~receiver:7

let test_simulated_decider_honest () =
  let direct = Zcpa.run layered3 ~x_dealer:5 in
  let sim =
    Zcpa.run ~decider:(Self_reduction.simulated_decider layered3) layered3
      ~x_dealer:5
  in
  Alcotest.check dec "same decision" direct.decided sim.decided;
  Alcotest.check dec "correct" (Some 5) sim.decided

let test_simulated_decider_with_pka_pi () =
  let sim =
    Zcpa.run
      ~decider:
        (Self_reduction.simulated_decider ~pi:Self_reduction.rmt_pka_pi
           layered3)
      layered3 ~x_dealer:5
  in
  Alcotest.check dec "Pi = RMT-PKA works too" (Some 5) sim.decided

(* full agreement across random instances and adversaries *)
let qcheck_simulated_agrees =
  QCheck.Test.make ~count:10 ~name:"simulated decider = direct oracle"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 3 in
      let g = Generators.random_connected_gnp rng n 0.55 in
      let inst =
        Instance.ad_hoc_of ~graph:g
          ~structure:(Builders.global_threshold g ~dealer:0 1)
          ~dealer:0 ~receiver:(n - 1)
      in
      let corrupted =
        Prng.sample rng
          (Nodeset.remove 0 (Nodeset.remove (n - 1) (Graph.nodes g)))
          1
      in
      (* compiled strategies are single-run values: one list per side *)
      let adversaries () =
        Rmt_net.Engine.no_adversary
        :: List.map snd (value_attacks inst ~x_dealer:5 ~x_fake:9 corrupted)
      in
      List.for_all2
        (fun for_direct for_sim ->
          let direct = Zcpa.run ~adversary:for_direct inst ~x_dealer:5 in
          let sim =
            Zcpa.run ~decider:(Self_reduction.simulated_decider inst)
              ~adversary:for_sim inst ~x_dealer:5
          in
          direct.decided = sim.decided)
        (adversaries ()) (adversaries ()))

(* safety of the simulated decider: never a wrong decision *)
let test_simulated_decider_safe () =
  let corrupted = ns [ 1 ] in
  List.iter
    (fun (label, adversary) ->
      let r =
        Zcpa.run ~decider:(Self_reduction.simulated_decider layered3)
          ~adversary layered3 ~x_dealer:5
      in
      check (label ^ " safe") true (r.decided = None || r.decided = Some 5))
    (value_attacks layered3 ~x_dealer:5 ~x_fake:6 corrupted)

(* ------------------------------------------------------------------ *)
(* Minimal knowledge                                                   *)
(* ------------------------------------------------------------------ *)

let test_radius_frontier_monotone () =
  let g = Generators.grid 3 3 in
  let structure = Builders.global_threshold g ~dealer:0 1 in
  let frontier =
    Minimal_knowledge.radius_frontier ~graph:g ~structure ~dealer:0 ~receiver:8
  in
  (* once solvable, stays solvable *)
  let rec monotone seen_solvable = function
    | [] -> true
    | (_, Solvability.Solvable) :: rest -> monotone true rest
    | (_, _) :: rest -> (not seen_solvable) && monotone false rest
  in
  check "monotone frontier" true (monotone false frontier);
  check_int "covers all radii" 5 (List.length frontier)

let test_minimal_radius_consistent () =
  let g = Generators.grid 3 3 in
  let structure = Builders.global_threshold g ~dealer:0 1 in
  match
    Minimal_knowledge.minimal_radius ~graph:g ~structure ~dealer:0 ~receiver:8
  with
  | Minimal_knowledge.Unknown -> Alcotest.fail "budget exhausted on a 3x3 grid"
  | Minimal_knowledge.Unsolvable ->
    (* grid 3x3 is 2-connected only, so t=1 may genuinely be unsolvable
       even with full knowledge; verify against the cut decider *)
    let inst =
      Instance.make ~graph:g ~structure ~view:(View.full g) ~dealer:0
        ~receiver:8
    in
    check "full knowledge also unsolvable" true
      (Cut.exists_certainly (Cut.find_rmt_cut inst))
  | Minimal_knowledge.Radius k ->
    let inst =
      Instance.make ~graph:g ~structure ~view:(View.radius k g) ~dealer:0
        ~receiver:8
    in
    check "solvable at k" true (Cut.absent_certainly (Cut.find_rmt_cut inst));
    if k > 0 then begin
      let inst' =
        Instance.make ~graph:g ~structure
          ~view:(View.radius (k - 1) g)
          ~dealer:0 ~receiver:8
      in
      check "unsolvable below" true
        (Cut.exists_certainly (Cut.find_rmt_cut inst'))
    end

let test_greedy_minimal_views () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let structure = Builders.global_threshold g ~dealer:0 1 in
  let inst =
    Instance.make ~graph:g ~structure ~view:(View.full g) ~dealer:0 ~receiver:7
  in
  match Minimal_knowledge.greedy_minimal_views inst with
  | None -> Alcotest.fail "layered-3x2/t=1 should be solvable"
  | Some radii ->
    check_int "radius for every node" (Graph.num_nodes g) (List.length radii);
    check "some node shrank to 0" true (List.exists (fun (_, k) -> k = 0) radii)

(* ------------------------------------------------------------------ *)
(* Broadcast (Definition 10)                                           *)
(* ------------------------------------------------------------------ *)

let test_broadcast_known_instances () =
  let solvable g receiver =
    let inst =
      Instance.ad_hoc_of ~graph:g
        ~structure:(Builders.global_threshold g ~dealer:0 1)
        ~dealer:0 ~receiver
    in
    Broadcast.solvable inst
  in
  check "complete graph broadcasts" true
    (solvable (Generators.complete 5) 4 = Solvability.Solvable);
  check "layered-3x2 broadcasts" true
    (solvable (Generators.layered ~width:3 ~depth:2) 7 = Solvability.Solvable);
  check "cycle cannot broadcast" true
    (solvable (Generators.cycle 8) 4 = Solvability.Unsolvable);
  check "path cannot broadcast" true
    (solvable (Generators.path_graph 5) 4 = Solvability.Unsolvable)

(* broadcast is unsolvable iff some node's RMT is unsolvable *)
let qcheck_broadcast_pointwise =
  QCheck.Test.make ~count:30 ~name:"broadcast cut = some node blocked"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 4 in
      let g = Generators.random_connected_gnp rng n 0.45 in
      let structure =
        if Prng.bool rng then Builders.global_threshold g ~dealer:0 1
        else Builders.random_antichain rng g ~dealer:0 ~sets:4 ~max_size:2
      in
      let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1) in
      let cut = Cut.exists_certainly (Broadcast.find_zpp_cut inst) in
      let blocked = Broadcast.blocked_nodes inst in
      cut = not (Nodeset.is_empty blocked))

(* blocked_nodes marks a witness's whole B at once; that must agree with
   one search per node (the searches here always finish in budget) *)
let qcheck_blocked_per_node =
  QCheck.Test.make ~count:60 ~name:"blocked nodes = one search per node"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 5 in
      let g = Generators.random_connected_gnp rng n 0.4 in
      let structure =
        if Prng.bool rng then Builders.global_threshold g ~dealer:0 1
        else Builders.random_antichain rng g ~dealer:0 ~sets:4 ~max_size:2
      in
      let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1) in
      let forbidden = Graph.closed_neighborhood 0 g in
      let view = View.ad_hoc g in
      let local = Joint.view_nodes_cache view in
      let per_node =
        Nodeset.filter
          (fun v ->
            Cut.exists_certainly
              (Cut.boundary_search g structure ~view ~local ~seed:v
                 ~forbidden))
          (Graph.nodes g)
      in
      Nodeset.equal (Broadcast.blocked_nodes inst) per_node)

(* Definition 10 by brute force, independent of the boundary search: some
   cut C ∌ D, some maximal M and some component B ∌ D of G − C with
   ∀u ∈ B, N(u) ∩ (C ∖ M) ∈ 𝒵_u *)
let brute_broadcast_cut (inst : Instance.t) =
  let g = inst.graph and z = inst.structure in
  let local_ok c2 u =
    let nu = Graph.neighbors u g in
    Structure.mem (Nodeset.inter nu c2) (Structure.restrict (Nodeset.add u nu) z)
  in
  let found = ref false in
  Nodeset.subsets_iter (Nodeset.remove inst.dealer (Graph.nodes g)) (fun c ->
      let d_side = Connectivity.component_of ~avoiding:c g inst.dealer in
      let rest = Nodeset.diff (Graph.nodes g) (Nodeset.union c d_side) in
      Nodeset.iter
        (fun v ->
          let b = Connectivity.component_of ~avoiding:c g v in
          List.iter
            (fun m ->
              if Nodeset.for_all (local_ok (Nodeset.diff c m)) b then
                found := true)
            (Structure.maximal_sets z))
        rest);
  !found

let qcheck_broadcast_brute =
  QCheck.Test.make ~count:100 ~name:"broadcast cut decider = brute force"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 4 in
      let g = Generators.random_connected_gnp rng n 0.45 in
      let structure =
        if Prng.bool rng then Builders.global_threshold g ~dealer:0 1
        else Builders.random_antichain rng g ~dealer:0 ~sets:4 ~max_size:2
      in
      let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1) in
      let v = Broadcast.find_zpp_cut inst in
      v.complete && Cut.exists_certainly v = brute_broadcast_cut inst)

let test_broadcast_run () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~dealer:0 ~receiver:7
  in
  let r = Broadcast.run inst ~x_dealer:6 in
  check "all honest decided" true r.complete;
  check_int "no wrong" 0 r.wrong;
  (* under a flipping corrupted node, the rest still completes *)
  let adversary =
    List.assoc "value-flip" (value_attacks inst ~x_dealer:6 ~x_fake:9 (ns [ 1 ]))
  in
  let r = Broadcast.run ~adversary inst ~x_dealer:6 in
  check "complete under flip" true r.complete;
  check_int "honest count excludes corrupt+dealer" 6 r.honest

let qcheck_broadcast_tightness =
  QCheck.Test.make ~count:20 ~name:"no broadcast cut => Z-CPA broadcast completes"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 4 in
      let g = Generators.random_connected_gnp rng n 0.5 in
      let structure = Builders.global_threshold g ~dealer:0 1 in
      let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1) in
      match Broadcast.solvable inst with
      | Solvability.Solvable ->
        List.for_all
          (fun corrupted ->
            if Nodeset.is_empty corrupted then
              (Broadcast.run inst ~x_dealer:3).complete
            else
              List.for_all
                (fun (_, adversary) ->
                  let r = Broadcast.run ~adversary inst ~x_dealer:3 in
                  r.wrong = 0 && r.complete)
                (value_attacks inst ~x_dealer:3 ~x_fake:4 corrupted))
          (Nodeset.empty :: Instance.corruption_sets inst)
      | Solvability.Unsolvable | Solvability.Unknown -> true)

(* broadcast necessity: when a broadcast cut exists, the two-face attack
   built from a blocked node's RMT witness starves that node in both runs *)
let qcheck_broadcast_necessity =
  QCheck.Test.make ~count:15 ~name:"broadcast cut => some node starved"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 4 in
      let g = Generators.random_connected_gnp rng n 0.45 in
      let structure = Builders.global_threshold g ~dealer:0 1 in
      let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1) in
      let blocked = Broadcast.blocked_nodes inst in
      match Nodeset.choose_opt blocked with
      | None -> Broadcast.solvable inst = Solvability.Solvable
      | Some v ->
        let inst_v =
          Instance.make ~graph:g ~structure ~view:inst.Instance.view ~dealer:0
            ~receiver:v
        in
        (match (Cut.find_rmt_zpp_cut inst_v).cut_found with
         | None -> false
         | Some w ->
           let verdict = Attack.against_zcpa inst_v w ~x0:0 ~x1:1 in
           verdict.decision_e = None && verdict.decision_e' = None))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_suites () =
  let rng = Prng.create 2 in
  let suite = Rmt_workloads.Workload.tightness_suite rng ~count:6 ~n:8 in
  check_int "count" 6 (List.length suite);
  List.iter
    (fun { Rmt_workloads.Workload.label; instance } ->
      check (label ^ " connected") true
        (Connectivity.is_connected instance.Instance.graph))
    suite

let test_workload_determinism () =
  let s1 = Rmt_workloads.Workload.tightness_suite (Prng.create 4) ~count:4 ~n:8 in
  let s2 = Rmt_workloads.Workload.tightness_suite (Prng.create 4) ~count:4 ~n:8 in
  List.iter2
    (fun a b ->
      check "same labels" true
        (a.Rmt_workloads.Workload.label = b.Rmt_workloads.Workload.label);
      check "same graphs" true
        (Graph.equal a.instance.Instance.graph b.instance.Instance.graph))
    s1 s2

let test_scaling_family_solvable () =
  List.iter
    (fun (n, inst) ->
      check
        (Printf.sprintf "n=%d solvable" n)
        true
        (Cut.absent_certainly (Cut.find_rmt_zpp_cut inst)))
    (Rmt_workloads.Workload.scaling_family ~width:3 ~max_depth:3)

let test_probe_counts () =
  let r = Campaign.battery Campaign.Zcpa layered3 ~x_dealer:5 ~x_fake:6 in
  (* honest run + menu entries x maximal sets not containing the receiver *)
  check "positive runs" true (r.trials > 1);
  check_int "every battery program ran"
    (List.length (Campaign.battery_programs Campaign.Zcpa layered3 ~x_fake:6))
    r.trials;
  check_int "outcomes partition the runs" r.trials
    (r.delivered + r.silenced + r.violated);
  check_int "failures = incorrect runs" (r.trials - r.delivered)
    (r.silenced + r.violated)

let () =
  Alcotest.run "self-reduction"
    [
      ( "basic-instances",
        [
          Alcotest.test_case "graph shape" `Quick test_basic_graph_shape;
          Alcotest.test_case "validation" `Quick test_basic_graph_validation;
          Alcotest.test_case "solvability criterion" `Quick
            test_basic_solvable_criterion;
          Alcotest.test_case "criterion = Q2" `Quick test_basic_solvable_is_q2;
          QCheck_alcotest.to_alcotest qcheck_basic_solvable;
        ] );
      ( "decision-protocol",
        [
          Alcotest.test_case "honest agreement" `Quick
            test_simulated_decider_honest;
          Alcotest.test_case "Pi = RMT-PKA" `Quick
            test_simulated_decider_with_pka_pi;
          QCheck_alcotest.to_alcotest qcheck_simulated_agrees;
          Alcotest.test_case "safety" `Quick test_simulated_decider_safe;
        ] );
      ( "minimal-knowledge",
        [
          Alcotest.test_case "frontier monotone" `Quick
            test_radius_frontier_monotone;
          Alcotest.test_case "minimal radius" `Quick
            test_minimal_radius_consistent;
          Alcotest.test_case "greedy views" `Quick test_greedy_minimal_views;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "known instances" `Quick
            test_broadcast_known_instances;
          QCheck_alcotest.to_alcotest qcheck_broadcast_pointwise;
          QCheck_alcotest.to_alcotest qcheck_blocked_per_node;
          QCheck_alcotest.to_alcotest qcheck_broadcast_brute;
          Alcotest.test_case "run" `Quick test_broadcast_run;
          QCheck_alcotest.to_alcotest qcheck_broadcast_tightness;
          QCheck_alcotest.to_alcotest qcheck_broadcast_necessity;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "suites" `Quick test_workload_suites;
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "scaling solvable" `Quick
            test_scaling_family_solvable;
          Alcotest.test_case "probe counts" `Quick test_probe_counts;
        ] );
    ]
