(* Tests for the RMT-cut (Definition 3) and RMT Z-pp cut (Definition 7)
   deciders: known instances, brute-force equivalence, and the structural
   cross-checks that the theory predicts (full-knowledge collapse to the
   classic two-set condition; ad hoc equivalence of the two cut notions;
   monotonicity of solvability in knowledge). *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

let ad_hoc_instance g ~t ~dealer ~receiver =
  Instance.ad_hoc_of ~graph:g
    ~structure:(Builders.global_threshold g ~dealer t)
    ~dealer ~receiver

(* random small instance generators, shared across suites (test/gen) *)
let arb_instance = Rmt_test_gen.Gen.arb_instance
let arb_ad_hoc_instance = Rmt_test_gen.Gen.arb_ad_hoc_instance
let arb_wide_instance = Rmt_test_gen.Gen.arb_wide_instance

(* ------------------------------------------------------------------ *)
(* Known instances                                                     *)
(* ------------------------------------------------------------------ *)

let test_path_has_cut () =
  let inst = ad_hoc_instance (Generators.path_graph 4) ~t:1 ~dealer:0 ~receiver:3 in
  let v = Cut.find_rmt_cut inst in
  check "cut exists" true (Cut.exists_certainly v);
  (match v.cut_found with
   | Some w -> check "witness checks out" true (Cut.is_rmt_cut inst w.c1 w.c2)
   | None -> Alcotest.fail "expected witness");
  check "zpp too" true (Cut.exists_certainly (Cut.find_rmt_zpp_cut inst))

let test_complete_no_cut () =
  let inst = ad_hoc_instance (Generators.complete 4) ~t:1 ~dealer:0 ~receiver:3 in
  check "no rmt cut" true (Cut.absent_certainly (Cut.find_rmt_cut inst));
  check "no zpp cut" true (Cut.absent_certainly (Cut.find_rmt_zpp_cut inst))

let test_layered_2x2_cut () =
  (* connectivity 2 with t=1 and local receiver knowledge: cut exists *)
  let g = Generators.layered ~width:2 ~depth:2 in
  let inst = ad_hoc_instance g ~t:1 ~dealer:0 ~receiver:5 in
  check "cut exists" true (Cut.exists_certainly (Cut.find_rmt_cut inst))

let test_layered_3x2_no_cut () =
  (* connectivity 3 with t=1: solvable even ad hoc *)
  let g = Generators.layered ~width:3 ~depth:2 in
  let inst = ad_hoc_instance g ~t:1 ~dealer:0 ~receiver:7 in
  check "no cut" true (Cut.absent_certainly (Cut.find_rmt_cut inst));
  check "no zpp cut" true (Cut.absent_certainly (Cut.find_rmt_zpp_cut inst))

let test_receiver_adjacent_dealer () =
  let g = Generators.path_graph 3 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 2)
      ~dealer:0 ~receiver:1
  in
  (* no cut can exclude the dealer and separate adjacent nodes *)
  check "adjacent: never a cut" true
    (Cut.absent_certainly (Cut.find_rmt_cut inst))

let test_asymmetric_structure () =
  (* layered 2x2 where only node 3 is corruptible: full knowledge makes it
     solvable (no two admissible sets cut), and in fact even ad hoc the
     receiver can certify value via node 4's side *)
  let g = Generators.layered ~width:2 ~depth:2 in
  let structure = Builders.from_maximal g ~dealer:0 [ ns [ 3 ] ] in
  let full =
    Instance.make ~graph:g ~structure ~view:(View.full g) ~dealer:0 ~receiver:5
  in
  check "full knowledge solvable" true
    (Cut.absent_certainly (Cut.find_rmt_cut full))

(* D = 0 reaches R = 6 along three disjoint paths 0-1-4-6, 0-2-5-6, 0-3-6.
   With t = 1 and full knowledge no split of a 3-node cut puts both halves
   in 𝒵, so there is no RMT-cut; but C = {1, 2, 3} with C₁ = {3} is a Z-pp
   cut, since 4 and 5 each see one node of C₂ = {1, 2}.  The Z-pp decider
   must find it whatever the instance's view. *)
let test_zpp_ignores_view () =
  let g =
    Graph.of_edges
      [ (0, 1); (0, 2); (0, 3); (1, 4); (2, 5); (3, 6); (4, 6); (5, 6) ]
  in
  let inst =
    Instance.make ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~view:(View.full g) ~dealer:0 ~receiver:6
  in
  check "no RMT-cut under full knowledge" true
    (Cut.absent_certainly (Cut.find_rmt_cut inst));
  match (Cut.find_rmt_zpp_cut inst).cut_found with
  | Some w -> check "Z-pp witness checks out" true (Cut.is_rmt_zpp_cut inst w.c1 w.c2)
  | None -> Alcotest.fail "expected a Z-pp cut"

let test_is_rmt_cut_direct () =
  let g = Generators.path_graph 4 in
  let inst = ad_hoc_instance g ~t:1 ~dealer:0 ~receiver:3 in
  (* {1} ∈ Z and C2 = ∅: cut {1} splits; B = {2,3} *)
  check "explicit cut" true (Cut.is_rmt_cut inst (ns [ 1 ]) Nodeset.empty);
  check "non-cut rejected" false
    (Cut.is_rmt_cut inst Nodeset.empty Nodeset.empty);
  check "c1 too big rejected" false
    (Cut.is_rmt_cut inst (ns [ 1; 2 ]) Nodeset.empty)

(* ------------------------------------------------------------------ *)
(* Brute force cross-check                                             *)
(* ------------------------------------------------------------------ *)

(* every split Definition 3 and 7 need: each C ⊆ V ∖ {D, R} with
   C₁ = C ∩ M, C₂ = C ∖ M for each maximal M *)
let iter_splits (inst : Instance.t) f =
  let candidates =
    Nodeset.remove inst.dealer
      (Nodeset.remove inst.receiver (Graph.nodes inst.graph))
  in
  Nodeset.subsets_iter candidates (fun c ->
      List.iter
        (fun m -> f (Nodeset.inter c m) (Nodeset.diff c m))
        (Structure.maximal_sets inst.structure))

let brute_exists (inst : Instance.t) is_cut =
  let found = ref false in
  iter_splits inst (fun c1 c2 ->
      if (not !found) && is_cut inst c1 c2 then found := true);
  !found

(* The lemma behind the search's prune: when every V(γ(v)) ⊇ N[v], no
   accepted cut has an incorruptible node (in no maximal M) on the
   boundary of its receiver side B. *)
let no_incorruptible_on_boundary (inst : Instance.t) is_cut =
  let incorruptible =
    List.fold_left Nodeset.diff (Graph.nodes inst.graph)
      (Structure.maximal_sets inst.structure)
  in
  let ok = ref true in
  iter_splits inst (fun c1 c2 ->
      if !ok && is_cut inst c1 c2 then
        let b =
          Connectivity.component_of ~avoiding:(Nodeset.union c1 c2)
            inst.graph inst.receiver
        in
        ok :=
          Nodeset.disjoint incorruptible
            (Graph.neighborhood_of_set b inst.graph));
  !ok

let brute_rmt_cut arb name =
  QCheck.Test.make ~count:70 ~name arb (fun inst ->
      let v = Cut.find_rmt_cut inst in
      v.complete && Cut.exists_certainly v = brute_exists inst Cut.is_rmt_cut)

let brute_zpp_cut arb name =
  QCheck.Test.make ~count:70 ~name arb (fun inst ->
      let v = Cut.find_rmt_zpp_cut inst in
      v.complete
      && Cut.exists_certainly v = brute_exists inst Cut.is_rmt_zpp_cut)

let qcheck_brute =
  [
    brute_rmt_cut arb_instance "RMT-cut decider = brute force";
    brute_zpp_cut arb_ad_hoc_instance "Z-pp decider = brute force";
    (* the Z-pp decider searches under the ad hoc view whatever the
       instance's own view is; the literal Definition 7 check never reads
       it either *)
    brute_zpp_cut arb_instance "Z-pp decider = brute force, any view";
    (* radius-0 views (no prune) and 𝒵 = {∅} (every node pinned) *)
    brute_rmt_cut arb_wide_instance
      "RMT-cut decider = brute force, radius 0 and thr:0";
    brute_zpp_cut arb_wide_instance
      "Z-pp decider = brute force, radius 0 and thr:0";
    QCheck.Test.make ~count:70
      ~name:"star-covering views: no cut has an incorruptible boundary node"
      arb_wide_instance (fun inst ->
        QCheck.assume (View.covers_stars inst.view);
        no_incorruptible_on_boundary inst Cut.is_rmt_cut
        && no_incorruptible_on_boundary inst Cut.is_rmt_zpp_cut);
  ]

(* ------------------------------------------------------------------ *)
(* Theory cross-checks                                                 *)
(* ------------------------------------------------------------------ *)

let qcheck_theory =
  [
    (* Both notions characterize the same solvable class in the ad hoc
       model (Thms 3+5 vs 7+8), so they must coincide there. *)
    QCheck.Test.make ~count:40 ~name:"ad hoc: RMT-cut ⇔ RMT Z-pp cut"
      arb_ad_hoc_instance (fun inst ->
        Cut.exists_certainly (Cut.find_rmt_cut inst)
        = Cut.exists_certainly (Cut.find_rmt_zpp_cut inst));
    (* Full knowledge collapses the RMT-cut to the classic "two admissible
       sets jointly cut" condition (Kumar et al. / PPA). *)
    QCheck.Test.make ~count:40 ~name:"full knowledge: RMT-cut ⇔ ¬PPA-solvable"
      arb_instance (fun inst ->
        let full = Instance.with_view inst (View.full inst.graph) in
        Cut.exists_certainly (Cut.find_rmt_cut full)
        = not
            (Rmt_protocols.Ppa.solvable full.graph ~structure:full.structure
               ~dealer:full.dealer ~receiver:full.receiver));
    (* More knowledge never hurts: solvable at radius k ⇒ solvable at k+1. *)
    QCheck.Test.make ~count:25 ~name:"solvability monotone in radius"
      arb_instance (fun inst ->
        let diam =
          Option.value (Connectivity.diameter inst.graph) ~default:2
        in
        let solvable_at k =
          Cut.absent_certainly
            (Cut.find_rmt_cut
               (Instance.with_view inst (View.radius k inst.graph)))
        in
        let rec monotone k prev =
          if k > diam then true
          else
            let cur = solvable_at k in
            if prev && not cur then false else monotone (k + 1) cur
        in
        monotone 1 (solvable_at 0));
  ]

let test_budget_reported () =
  (* a large solvable instance with a tiny budget: no cut will be found in
     three visited subsets, and incompleteness must be reported *)
  let g = Generators.layered ~width:4 ~depth:4 in
  let inst = ad_hoc_instance g ~t:1 ~dealer:0 ~receiver:17 in
  let v = Cut.find_rmt_cut ~budget:3 inst in
  check "no witness" false (Cut.exists_certainly v);
  check "reported incomplete" false v.complete;
  check "not absent-certain" false (Cut.absent_certainly v)

let test_visited_counts () =
  let g = Generators.layered ~width:4 ~depth:4 in
  let inst = ad_hoc_instance g ~t:1 ~dealer:0 ~receiver:17 in
  (* budget-capped search: the counter includes the over-budget candidate
     that tripped the cap, so it lands in [1, budget + 1] *)
  let capped = Cut.find_rmt_cut ~budget:3 inst in
  check "visited under budget" true (capped.visited >= 1 && capped.visited <= 4);
  (* complete search visits at least as much as the capped one, and both
     deciders agree on the count since they enumerate the same space *)
  let full = Cut.find_rmt_cut inst in
  check "full visits more" true (full.visited >= capped.visited);
  let naive = Cut.find_rmt_cut_naive inst in
  Alcotest.(check int) "naive visits same space" full.visited naive.visited

let () =
  Alcotest.run "cut"
    [
      ( "known-instances",
        [
          Alcotest.test_case "path has cut" `Quick test_path_has_cut;
          Alcotest.test_case "complete none" `Quick test_complete_no_cut;
          Alcotest.test_case "layered 2x2 cut" `Quick test_layered_2x2_cut;
          Alcotest.test_case "layered 3x2 none" `Quick test_layered_3x2_no_cut;
          Alcotest.test_case "adjacent receiver" `Quick
            test_receiver_adjacent_dealer;
          Alcotest.test_case "asymmetric structure" `Quick
            test_asymmetric_structure;
          Alcotest.test_case "is_rmt_cut direct" `Quick test_is_rmt_cut_direct;
          Alcotest.test_case "budget reported" `Quick test_budget_reported;
          Alcotest.test_case "visited counts" `Quick test_visited_counts;
          Alcotest.test_case "Z-pp ignores the view" `Quick
            test_zpp_ignores_view;
        ] );
      ("brute-force", List.map QCheck_alcotest.to_alcotest qcheck_brute);
      ("theory", List.map QCheck_alcotest.to_alcotest qcheck_theory);
    ]
