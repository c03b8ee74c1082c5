(* Tests for Byzantine-resilient topology discovery. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list

(* every corrupted node runs the same attack program entry *)
let attack inst corrupted base injects =
  Strategy_gen.compile_pka
    (Program.uniform ~seed:0 corrupted base injects)
    inst ~x_dealer:0

let instance g ~receiver =
  Instance.ad_hoc_of ~graph:g
    ~structure:(Builders.global_threshold g ~dealer:0 1)
    ~dealer:0 ~receiver

let test_honest_reconstruction () =
  let g = Generators.grid 3 3 in
  let inst = instance g ~receiver:8 in
  let db = Discovery.observe inst ~observer:8 in
  check "confirmed = real graph" true (Graph.equal (Discovery.confirmed db) g);
  check "no conflicts" true (Nodeset.is_empty (Discovery.conflicted db));
  let acc = Discovery.score inst db in
  check_int "all true edges" acc.true_edges acc.confirmed_true;
  check_int "no false edges" 0 acc.confirmed_false;
  check_int "no phantoms" 0 acc.phantom_nodes

let test_liar_not_confirmed () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let inst = instance g ~receiver:7 in
  let corrupted = ns [ 4 ] in
  (* node 4 claims a direct edge to the dealer's far side *)
  let adversary =
    attack inst corrupted Program.Honest [ Program.Lie_topology ]
  in
  let db = Discovery.observe ~adversary inst ~observer:7 in
  let acc = Discovery.score inst db in
  check_int "no fake edge survives confirmation" 0 acc.confirmed_false;
  (* the liar sent a second self-report: it is flagged as conflicted *)
  check "liar conflicted" true (Nodeset.mem 4 (Discovery.conflicted db))

let test_silent_node_hole () =
  let g = Generators.grid 3 3 in
  let inst = instance g ~receiver:8 in
  let corrupted = ns [ 4 ] in
  let adversary = Rmt_net.Byzantine.silent corrupted in
  let db = Discovery.observe ~adversary inst ~observer:8 in
  let conf = Discovery.confirmed db in
  (* the silent node's edges cannot be confirmed... *)
  check "silent node's edges unconfirmed" false (Graph.mem_edge 4 1 conf);
  (* ...but every honest-honest edge still is (grid minus center stays
     connected) *)
  List.iter
    (fun (u, v) ->
      if u <> 4 && v <> 4 then
        check (Printf.sprintf "edge %d-%d confirmed" u v) true
          (Graph.mem_edge u v conf))
    (Graph.edges g);
  let acc = Discovery.score inst db in
  check_int "still no false edges" 0 acc.confirmed_false

let test_fictitious_detected () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let inst = instance g ~receiver:7 in
  let corrupted = ns [ 4 ] in
  let adversary = attack inst corrupted Program.Honest [ Program.Phantom 9 ] in
  let db = Discovery.observe ~adversary inst ~observer:7 in
  let acc = Discovery.score inst db in
  check "phantom reported" true (acc.phantom_nodes >= 1);
  check_int "phantom edges not confirmed" 0 acc.confirmed_false;
  (* the phantom appears in the claimed envelope but not confirmed *)
  let phantom = Nodeset.max_elt_opt (Discovery.reported_nodes db) in
  (match phantom with
   | Some p when not (Graph.mem_node p g) ->
     check "phantom in claimed" true (Graph.mem_node p (Discovery.claimed db));
     check "phantom not in confirmed" false
       (Graph.mem_node p (Discovery.confirmed db))
   | _ -> Alcotest.fail "expected a phantom id")

(* soundness under arbitrary garbage: confirmed fake edges need both
   endpoints outside the honest set *)
let qcheck_soundness =
  QCheck.Test.make ~count:30 ~name:"confirmed fakes need two corrupted endpoints"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 6 + Prng.int rng 3 in
      let g = Generators.random_connected_gnp rng n 0.45 in
      let inst = instance g ~receiver:(n - 1) in
      let corrupted =
        Prng.sample rng
          (Nodeset.remove 0 (Nodeset.remove (n - 1) (Graph.nodes g)))
          (1 + Prng.int rng 2)
      in
      let adversary =
        attack inst corrupted Program.Honest
          [ Program.Spam { spam_seed = Prng.int rng 1_000_000; rounds = n } ]
      in
      let db = Discovery.observe ~adversary inst ~observer:(n - 1) in
      let honest = Nodeset.diff (Graph.nodes g) corrupted in
      List.for_all
        (fun (u, v) ->
          Graph.mem_edge u v g
          || ((not (Nodeset.mem u honest)) && not (Nodeset.mem v honest)))
        (Graph.edges (Discovery.confirmed db)))

(* completeness under silence: honest-honest edges reachable through
   honest paths are always confirmed *)
let qcheck_completeness =
  QCheck.Test.make ~count:30 ~name:"honest edges on honest paths confirmed"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 6 + Prng.int rng 3 in
      let g = Generators.random_connected_gnp rng n 0.45 in
      let observer = n - 1 in
      let inst = instance g ~receiver:observer in
      let corrupted =
        Prng.sample rng
          (Nodeset.remove 0 (Nodeset.remove observer (Graph.nodes g)))
          (1 + Prng.int rng 2)
      in
      let adversary = Rmt_net.Byzantine.silent corrupted in
      let db = Discovery.observe ~adversary inst ~observer in
      let conf = Discovery.confirmed db in
      let reachable =
        Rmt_graph.Connectivity.reachable_from ~avoiding:corrupted g observer
      in
      List.for_all
        (fun (u, v) ->
          (not (Nodeset.mem u reachable))
          || (not (Nodeset.mem v reachable))
          || Graph.mem_edge u v conf)
        (Graph.edges g))

let () =
  Alcotest.run "discovery"
    [
      ( "discovery",
        [
          Alcotest.test_case "honest reconstruction" `Quick
            test_honest_reconstruction;
          Alcotest.test_case "liar not confirmed" `Quick test_liar_not_confirmed;
          Alcotest.test_case "silent hole" `Quick test_silent_node_hole;
          Alcotest.test_case "fictitious detected" `Quick test_fictitious_detected;
          QCheck_alcotest.to_alcotest qcheck_soundness;
          QCheck_alcotest.to_alcotest qcheck_completeness;
        ] );
    ]
