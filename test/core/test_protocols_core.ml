(* Protocol-level tests: RMT-PKA (Theorems 4 and 5), Z-CPA for RMT
   (Theorems 7 and 8), the indistinguishability attacks, the strategy
   battery, and the baseline protocols. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list

let dec = Alcotest.(option int)

let ad_hoc g ~t ~dealer ~receiver =
  Instance.ad_hoc_of ~graph:g
    ~structure:(Builders.global_threshold g ~dealer t)
    ~dealer ~receiver

let k4_t1 = ad_hoc (Generators.complete 4) ~t:1 ~dealer:0 ~receiver:3
let layered3 = ad_hoc (Generators.layered ~width:3 ~depth:2) ~t:1 ~dealer:0 ~receiver:7
let path4 = ad_hoc (Generators.path_graph 4) ~t:1 ~dealer:0 ~receiver:3

(* small random ad hoc instances, shared across suites (test/gen) *)
let arb_small_instance = Rmt_test_gen.Gen.arb_small_instance

(* ------------------------------------------------------------------ *)
(* RMT-PKA basics                                                      *)
(* ------------------------------------------------------------------ *)

let test_pka_dealer_rule () =
  (* receiver adjacent to dealer decides immediately, even under attack *)
  let g = Generators.complete 4 in
  let inst = ad_hoc g ~t:2 ~dealer:0 ~receiver:1 in
  let corrupted = ns [ 2; 3 ] in
  let adv = Strategies.pka_value_flip inst ~x_dealer:7 ~x_fake:9 corrupted in
  let r = Rmt_pka.run ~adversary:adv inst ~x_dealer:7 in
  Alcotest.check dec "dealer rule" (Some 7) r.decided;
  check "fast" true (r.rounds <= 3)

let test_pka_honest_solvable () =
  List.iter
    (fun inst ->
      let r = Rmt_pka.run inst ~x_dealer:11 in
      Alcotest.check dec "honest run decides" (Some 11) r.decided)
    [ k4_t1; layered3 ]

let test_pka_within_n_rounds () =
  let r = Rmt_pka.run layered3 ~x_dealer:3 in
  check "within |V| rounds (Thm 5)" true
    (r.rounds <= Instance.num_nodes layered3 + 1)

let test_pka_message_sizes () =
  let m1 : Rmt_pka.msg =
    Rmt_net.Flood.{ payload = Rmt_pka.Value 4; trail = [ 0; 1 ] }
  in
  check "type-1 size" true (Rmt_pka.msg_size m1 >= 3);
  let report =
    Rmt_pka.
      {
        origin = 1;
        gamma = Generators.path_graph 3;
        zeta = Structure.threshold ~ground:(ns [ 1; 2 ]) 1;
      }
  in
  let m2 : Rmt_pka.msg =
    Rmt_net.Flood.{ payload = Rmt_pka.Info report; trail = [ 1 ] }
  in
  check "type-2 bigger" true (Rmt_pka.msg_size m2 > Rmt_pka.msg_size m1)

let test_pka_trace () =
  let auto = Rmt_pka.automaton layered3 ~x_dealer:1 in
  let outcome =
    Rmt_net.Engine.run ~graph:layered3.graph
      ~adversary:Rmt_net.Engine.no_adversary auto
  in
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s
      && (String.equal (String.sub s i n) sub || at (i + 1))
    in
    at 0
  in
  match List.assoc_opt 7 outcome.states with
  | Some st ->
    let trace = Rmt_pka.receiver_trace st in
    check "trace mentions receiver" true (String.length trace > 10);
    (* no D–R edge: a full message set decides, and the trace names its
       V_M and the dealer's report in it *)
    check "trace names V_M" true (contains trace "decided on V_M=");
    check "trace shows the dealer's report" true (contains trace "info 0:")
  | None -> Alcotest.fail "receiver state missing"

(* ------------------------------------------------------------------ *)
(* RMT-PKA safety (Theorem 4)                                          *)
(* ------------------------------------------------------------------ *)

let test_pka_safety_battery () =
  (* every strategy x every maximal corruption set on several instances:
     zero wrong decisions *)
  List.iter
    (fun inst ->
      let probe = Solvability.probe_rmt_pka inst ~x_dealer:5 ~x_fake:6 in
      check_int "no wrong decisions" 0 probe.wrong_runs)
    [ k4_t1; layered3; path4 ]

let qcheck_pka_safety =
  QCheck.Test.make ~count:25 ~name:"RMT-PKA never decides wrong (Thm 4)"
    arb_small_instance (fun inst ->
      let probe = Solvability.probe_rmt_pka inst ~x_dealer:5 ~x_fake:6 in
      probe.wrong_runs = 0)

(* ------------------------------------------------------------------ *)
(* RMT-PKA tightness (Thm 3 + Thm 5)                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_pka_sufficiency =
  QCheck.Test.make ~count:20
    ~name:"no RMT-cut => RMT-PKA resilient (Thm 5)" arb_small_instance
    (fun inst ->
      match Solvability.partial_knowledge inst with
      | Solvability.Solvable ->
        let probe = Solvability.probe_rmt_pka inst ~x_dealer:5 ~x_fake:6 in
        Solvability.all_correct probe
      | Solvability.Unsolvable | Solvability.Unknown -> true)

let qcheck_pka_necessity =
  QCheck.Test.make ~count:25
    ~name:"RMT-cut => two-face attack silences RMT-PKA (Thm 3)"
    arb_small_instance (fun inst ->
      match (Cut.find_rmt_cut inst).cut_found with
      | None -> true
      | Some w ->
        let v = Attack.against_rmt_pka inst w ~x0:0 ~x1:1 in
        v.views_agree && (not v.safety_broken)
        && v.decision_e = None && v.decision_e' = None)

(* ------------------------------------------------------------------ *)
(* Z-CPA                                                               *)
(* ------------------------------------------------------------------ *)

let test_zcpa_honest () =
  let r = Zcpa.run layered3 ~x_dealer:8 in
  Alcotest.check dec "decides" (Some 8) r.decided;
  check "all honest decided" true r.all_honest_decided;
  check "oracle consulted" true (r.oracle_calls > 0)

let test_zcpa_decider_of_oracle () =
  (* ascending value order; first certified wins *)
  let oracle ~v:_ n = Nodeset.size n >= 2 in
  let d = Zcpa.decider_of_oracle oracle in
  Alcotest.check dec "first certified" (Some 3)
    (d ~v:0 [ (9, ns [ 1; 2 ]); (3, ns [ 4; 5 ]) ]);
  Alcotest.check dec "none certified" None (d ~v:0 [ (9, ns [ 1 ]) ])

let test_zcpa_safety_battery () =
  let rng = Prng.create 31 in
  List.iter
    (fun inst ->
      let probe = Solvability.probe_zcpa rng inst ~x_dealer:5 ~x_fake:6 in
      check_int "no wrong decisions" 0 probe.wrong_runs)
    [ k4_t1; layered3; path4 ]

let qcheck_zcpa_sufficiency =
  QCheck.Test.make ~count:30
    ~name:"no Z-pp cut => Z-CPA resilient (Thm 7)" arb_small_instance
    (fun inst ->
      match Solvability.ad_hoc inst with
      | Solvability.Solvable ->
        let rng = Prng.create 7 in
        let probe = Solvability.probe_zcpa rng inst ~x_dealer:5 ~x_fake:6 in
        Solvability.all_correct probe
      | Solvability.Unsolvable | Solvability.Unknown -> true)

let qcheck_zcpa_necessity =
  QCheck.Test.make ~count:30
    ~name:"Z-pp cut => two-face attack silences Z-CPA (Thm 8)"
    arb_small_instance (fun inst ->
      match (Cut.find_rmt_zpp_cut inst).cut_found with
      | None -> true
      | Some w ->
        let v = Attack.against_zcpa inst w ~x0:0 ~x1:1 in
        v.views_agree && v.decision_e = None && v.decision_e' = None)

(* Z-CPA specialized to the t-local structure behaves exactly like CPA *)
let qcheck_zcpa_generalizes_cpa =
  QCheck.Test.make ~count:15 ~name:"Z-CPA(t-local) = CPA"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 3 in
      let g = Generators.random_connected_gnp rng n 0.6 in
      let t = 1 in
      let inst =
        Instance.ad_hoc_of ~graph:g
          ~structure:(Builders.t_local g ~dealer:0 t)
          ~dealer:0 ~receiver:(n - 1)
      in
      let z = Zcpa.run inst ~x_dealer:4 in
      let c =
        Rmt_protocols.Cpa.run g ~dealer:0 ~receiver:(n - 1) ~t ~x_dealer:4
      in
      z.decided = c.decided)

(* complexity bounds: Thm 5's |V|-round bound for RMT-PKA; Z-CPA's linear
   round and message costs (proof of Thm 9: "the receiver will decide in
   at most n rounds", "each player sends one message to all of its
   neighbors" plus the dealer's initial blast) *)
let qcheck_round_bounds =
  QCheck.Test.make ~count:15 ~name:"round/message bounds on solvable instances"
    arb_small_instance (fun inst ->
      let n = Instance.num_nodes inst in
      let m = Graph.num_edges inst.Instance.graph in
      let z = Zcpa.run inst ~x_dealer:2 in
      let zcpa_ok =
        z.decided <> Some 2
        || (z.rounds <= n + 2 && z.messages <= 2 * m)
      in
      let pka_ok =
        match Solvability.partial_knowledge inst with
        | Solvability.Solvable ->
          let p = Rmt_pka.run inst ~x_dealer:2 in
          p.decided = Some 2 && p.rounds <= n + 2
        | Solvability.Unsolvable | Solvability.Unknown -> true
      in
      zcpa_ok && pka_ok)

(* decisions are stable: once a player decides, the decision round is
   final and the value never changes through the rest of the run *)
let qcheck_decision_stability =
  QCheck.Test.make ~count:15 ~name:"decisions are stable"
    arb_small_instance (fun inst ->
      let auto =
        Zcpa.automaton
          ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
          inst ~x_dealer:3
      in
      (* run to quiescence (no stop_when): every decision seen in
         decision_rounds must match the final decision *)
      let outcome =
        Rmt_net.Engine.run ~graph:inst.Instance.graph
          ~adversary:Rmt_net.Engine.no_adversary auto
      in
      List.for_all
        (fun (v, _) -> Rmt_net.Engine.decision_of outcome v <> None)
        outcome.decision_rounds)

(* ------------------------------------------------------------------ *)
(* Uniqueness hierarchy: RMT-PKA dominates Z-CPA                       *)
(* ------------------------------------------------------------------ *)

let qcheck_hierarchy =
  QCheck.Test.make ~count:10
    ~name:"Z-CPA decides => RMT-PKA decides (uniqueness, Cor 6)"
    arb_small_instance (fun inst ->
      let z = Zcpa.run inst ~x_dealer:3 in
      match z.decided with
      | None -> true
      | Some _ ->
        let p = Rmt_pka.run inst ~x_dealer:3 in
        p.decided = Some 3)

(* ------------------------------------------------------------------ *)
(* Attacks and strategies                                              *)
(* ------------------------------------------------------------------ *)

let test_attack_fools_naive () =
  match (Cut.find_rmt_cut path4).cut_found with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
    let mk x =
      Rmt_protocols.Naive.first_value path4.graph ~dealer:0 ~receiver:3
        ~x_dealer:x
    in
    let v =
      Attack.co_simulate ~graph:path4.graph ~c1:w.c1 ~c2:w.c2 (mk 0) (mk 1)
        ~receiver:3
    in
    check "naive broken" true v.safety_broken;
    check "views agree" true v.views_agree

let test_attack_validation () =
  check "overlapping corruption rejected" true
    (try
       ignore
         (Attack.co_simulate ~graph:path4.graph ~c1:(ns [ 1 ]) ~c2:(ns [ 1 ])
            (Rmt_pka.automaton path4 ~x_dealer:0)
            (Rmt_pka.automaton path4 ~x_dealer:1)
            ~receiver:3);
       false
     with Invalid_argument _ -> true);
  check "corrupt receiver rejected" true
    (try
       ignore
         (Attack.co_simulate ~graph:path4.graph ~c1:(ns [ 3 ]) ~c2:Nodeset.empty
            (Rmt_pka.automaton path4 ~x_dealer:0)
            (Rmt_pka.automaton path4 ~x_dealer:1)
            ~receiver:3);
       false
     with Invalid_argument _ -> true)

let test_forged_structure_indistinguishable () =
  (* B-side locals agree between Z and Z' = Z u down{C2} (the premise of
     the necessity proofs) *)
  match (Cut.find_rmt_zpp_cut path4).cut_found with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
    let inst' = Attack.forged_structure path4 w.c2 in
    check "C2 admissible in forged" true (Instance.admissible inst' w.c2);
    Nodeset.iter
      (fun u ->
        check
          (Printf.sprintf "Z_%d unchanged" u)
          true
          (Structure.equal
             (Instance.local_structure path4 u)
             (Instance.local_structure inst' u)))
      w.b_side

let test_strategy_menu_runs () =
  let corrupted = ns [ 1 ] in
  List.iter
    (fun (label, adv) ->
      let r = Rmt_pka.run ~adversary:adv layered3 ~x_dealer:5 in
      check (label ^ " safe") true (r.decided = None || r.decided = Some 5))
    (Strategies.pka_full_menu layered3 ~x_dealer:5 ~x_fake:6 corrupted)

let test_fictitious_node_ignored () =
  (* the phantom report must not trick the receiver into a wrong value,
     and on a solvable instance the true value still gets through *)
  let corrupted = ns [ 1 ] in
  let adv = Strategies.pka_fictitious layered3 ~x_dealer:5 ~x_fake:66 corrupted in
  let r = Rmt_pka.run ~adversary:adv layered3 ~x_dealer:5 in
  Alcotest.check dec "correct despite phantom" (Some 5) r.decided

(* Regression: the stale-report attack.  On this instance (found by the
   E3 sweep at n=9) the adversary corrupts C1={5} / C2={3,4} and relays,
   through the corrupted nodes, node 6's report from the OTHER run — a
   stale-but-well-formed claim that erases the adversary cover if the
   receiver computes Z_B from the reports selected into M.  The sound
   receiver certifies B-side reports by B-internal trails and stays
   silent; a receiver without trail certification decides and is wrong in
   run e'. *)
let test_stale_report_attack_regression () =
  let g =
    Rmt_graph.Graph.of_edges
      [ (0, 3); (0, 4); (0, 8); (1, 2); (1, 4); (1, 5); (2, 3); (2, 5);
        (3, 5); (3, 6); (4, 6); (4, 7); (5, 6); (5, 7); (5, 8); (6, 7);
        (7, 8) ]
  in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~dealer:0 ~receiver:1
  in
  (* the cut is real *)
  check "unsolvable" true
    (Solvability.partial_knowledge inst = Solvability.Unsolvable);
  match (Cut.find_rmt_cut inst).cut_found with
  | None -> Alcotest.fail "expected witness"
  | Some w ->
    check "the witness" true (Cut.is_rmt_cut inst w.c1 w.c2);
    let v = Attack.against_rmt_pka inst w ~x0:0 ~x1:1 in
    check "receiver stays silent in e" true (v.decision_e = None);
    check "receiver stays silent in e'" true (v.decision_e' = None);
    check "no safety break" false v.safety_broken

(* The shielded component's ENTIRE population is fooled identically: every
   B-side node's view coincides across the paired runs, not just the
   receiver's (the heart of the Fig 2 argument). *)
let qcheck_bside_agreement =
  QCheck.Test.make ~count:15 ~name:"all B-side nodes agree across runs (Fig 2)"
    arb_small_instance (fun inst ->
      match (Cut.find_rmt_zpp_cut inst).cut_found with
      | None -> true
      | Some w ->
        let observers = Nodeset.elements w.b_side in
        let v = Attack.against_zcpa ~observers inst w ~x0:0 ~x1:1 in
        List.for_all (fun (_, (de, de')) -> de = de') v.observed)

(* ------------------------------------------------------------------ *)
(* Fuzzing                                                             *)
(* ------------------------------------------------------------------ *)

(* Storms of structurally random garbage (values, forged trails, fake
   reports about real and fictitious nodes) must never produce a wrong
   decision, on solvable and unsolvable instances alike. *)
let qcheck_pka_fuzz_safety =
  QCheck.Test.make ~count:60 ~name:"RMT-PKA survives message fuzzing"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 3 in
      let g = Generators.random_connected_gnp rng n 0.5 in
      let inst =
        Instance.ad_hoc_of ~graph:g
          ~structure:(Builders.global_threshold g ~dealer:0 1)
          ~dealer:0 ~receiver:(n - 1)
      in
      let corrupted =
        Prng.sample rng
          (Nodeset.remove 0 (Nodeset.remove (n - 1) (Graph.nodes g)))
          (1 + Prng.int rng 2)
      in
      let adversary = Strategies.pka_fuzz (Prng.split rng) inst ~x_dealer:5 corrupted in
      let r = Rmt_pka.run ~adversary inst ~x_dealer:5 in
      (* safety: whatever happens, never a value other than the dealer's;
         and when the actual corruption is admissible and the instance
         solvable, the fuzz must not even block delivery *)
      (r.decided = None || r.decided = Some 5)
      &&
      (if
         Instance.admissible inst corrupted
         && Solvability.partial_knowledge inst = Solvability.Solvable
         && not r.truncated
       then r.decided = Some 5
       else true))

(* The downward-heredity of adversary covers that the RMT-PKA receiver
   relies on (see DESIGN.md): if C covers a full set over V, then C ∩ V*
   covers every subset V* — equivalently, joint structures only shrink as
   the component grows.  We test the underlying monotonicity of Z_B. *)
let qcheck_cover_heredity =
  QCheck.Test.make ~count:40
    ~name:"Z_B membership is antitone in B (cover heredity)"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 6 + Prng.int rng 3 in
      let g = Generators.random_connected_gnp rng n 0.5 in
      let z = Builders.random_antichain rng g ~dealer:0 ~sets:4 ~max_size:3 in
      let view = View.ad_hoc g in
      let b = Prng.sample rng (Nodeset.remove 0 (Graph.nodes g)) 4 in
      let b' = Prng.sample rng b 2 in
      if Nodeset.is_empty b' then true
      else begin
        let zb = Joint.joint_structure view z b in
        let zb' = Joint.joint_structure view z b' in
        (* every set allowed by the bigger group, restricted to the smaller
           group's horizon, is allowed by the smaller group *)
        List.for_all
          (fun m ->
            Structure.mem (Nodeset.inter m (Structure.ground zb')) zb')
          (Structure.maximal_sets zb)
      end)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_cpa_complete_graph () =
  let g = Generators.complete 5 in
  let r = Rmt_protocols.Cpa.run g ~dealer:0 ~receiver:4 ~t:1 ~x_dealer:3 in
  Alcotest.check dec "decides" (Some 3) r.decided

let test_cpa_blocked_on_path () =
  let g = Generators.path_graph 4 in
  let r = Rmt_protocols.Cpa.run g ~dealer:0 ~receiver:3 ~t:1 ~x_dealer:3 in
  (* nodes past the dealer's neighbor never see t+1 = 2 senders *)
  Alcotest.check dec "cannot certify" None r.decided

let test_ppa_solvable_and_runs () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let structure = Builders.global_threshold g ~dealer:0 1 in
  check "solvable" true (Rmt_protocols.Ppa.solvable g ~structure ~dealer:0 ~receiver:7);
  let r = Rmt_protocols.Ppa.run g ~structure ~dealer:0 ~receiver:7 ~x_dealer:2 in
  Alcotest.check dec "decides" (Some 2) r.decided

let test_ppa_safety_under_flip () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let structure = Builders.global_threshold g ~dealer:0 1 in
  let auto = Rmt_protocols.Ppa.automaton g ~structure ~dealer:0 ~receiver:7 ~x_dealer:2 in
  let adv =
    Rmt_net.Byzantine.transform (ns [ 1 ]) auto (fun _ ~round:_ s ->
        [
          Rmt_net.Engine.
            {
              s with
              payload = { s.payload with Rmt_net.Flood.payload = 99 };
            };
        ])
  in
  let r = Rmt_protocols.Ppa.run ~adversary:adv g ~structure ~dealer:0 ~receiver:7 ~x_dealer:2 in
  Alcotest.check dec "correct under flip" (Some 2) r.decided

let test_dolev_routes_disjoint () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let rts = Rmt_protocols.Dolev.routes g ~dealer:0 ~receiver:7 in
  check_int "three disjoint routes" 3 (List.length rts);
  (* pairwise internally disjoint *)
  let interiors =
    List.map
      (fun p -> ns (List.filter (fun v -> v <> 0 && v <> 7) p))
      rts
  in
  let rec pairwise = function
    | [] -> true
    | x :: rest ->
      List.for_all (Nodeset.disjoint x) rest && pairwise rest
  in
  check "internally disjoint" true (pairwise interiors);
  check_int "tolerates t=1" 1 (Rmt_protocols.Dolev.tolerates g ~dealer:0 ~receiver:7)

let test_dolev_delivers () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let r = Rmt_protocols.Dolev.run g ~dealer:0 ~receiver:7 ~x_dealer:5 in
  Alcotest.check dec "majority delivery" (Some 5) r.decided;
  (* source routing is frugal: one message per hop per route *)
  check "few messages" true (r.messages <= 12)

let test_dolev_survives_flip () =
  let g = Generators.layered ~width:3 ~depth:2 in
  let auto = Rmt_protocols.Dolev.automaton g ~dealer:0 ~receiver:7 ~x_dealer:5 in
  let adv =
    Rmt_net.Byzantine.transform (ns [ 1 ]) auto (fun _ ~round:_ s ->
        [
          Rmt_net.Engine.
            { s with payload = { s.payload with Rmt_net.Flood.payload = 99 } };
        ])
  in
  let r = Rmt_protocols.Dolev.run ~adversary:adv g ~dealer:0 ~receiver:7 ~x_dealer:5 in
  Alcotest.check dec "2 honest routes out of 3 win" (Some 5) r.decided

let test_dolev_beyond_tolerance () =
  (* two corruptions against three routes: majority can be faked away *)
  let g = Generators.layered ~width:3 ~depth:2 in
  let auto = Rmt_protocols.Dolev.automaton g ~dealer:0 ~receiver:7 ~x_dealer:5 in
  let adv =
    Rmt_net.Byzantine.transform (ns [ 1; 2 ]) auto (fun _ ~round:_ s ->
        [
          Rmt_net.Engine.
            { s with payload = { s.payload with Rmt_net.Flood.payload = 99 } };
        ])
  in
  let r = Rmt_protocols.Dolev.run ~adversary:adv g ~dealer:0 ~receiver:7 ~x_dealer:5 in
  check "wrong majority possible beyond t" true (r.decided = Some 99)

let qcheck_dolev_routes =
  QCheck.Test.make ~count:30 ~name:"dolev routes disjoint on random graphs"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 5 + Prng.int rng 5 in
      let g = Generators.random_connected_gnp rng n 0.4 in
      let rts = Rmt_protocols.Dolev.routes g ~dealer:0 ~receiver:(n - 1) in
      let interiors =
        List.map
          (fun p -> ns (List.filter (fun v -> v <> 0 && v <> n - 1) p))
          rts
      in
      let rec pairwise = function
        | [] -> true
        | x :: rest -> List.for_all (Nodeset.disjoint x) rest && pairwise rest
      in
      let valid =
        List.for_all (fun p -> Rmt_graph.Paths.is_path_in g p) rts
      in
      let mc = Rmt_graph.Connectivity.min_vertex_cut g 0 (n - 1) in
      valid && pairwise interiors
      && (mc = max_int || List.length rts <= mc)
      && (rts <> [] (* connected graph: at least one route *)))

let test_naive_unsafe_but_fast () =
  let g = Generators.path_graph 4 in
  let auto = Rmt_protocols.Naive.first_value g ~dealer:0 ~receiver:3 ~x_dealer:1 in
  let outcome =
    Rmt_net.Engine.run ~graph:g ~adversary:Rmt_net.Engine.no_adversary auto
  in
  Alcotest.check dec "honest network ok" (Some 1)
    (Rmt_net.Engine.decision_of outcome 3)

let () =
  Alcotest.run "protocols-core"
    [
      ( "rmt-pka",
        [
          Alcotest.test_case "dealer rule" `Quick test_pka_dealer_rule;
          Alcotest.test_case "honest solvable" `Quick test_pka_honest_solvable;
          Alcotest.test_case "round bound" `Quick test_pka_within_n_rounds;
          Alcotest.test_case "message sizes" `Quick test_pka_message_sizes;
          Alcotest.test_case "trace" `Quick test_pka_trace;
          Alcotest.test_case "safety battery" `Quick test_pka_safety_battery;
          QCheck_alcotest.to_alcotest qcheck_pka_safety;
          QCheck_alcotest.to_alcotest qcheck_pka_sufficiency;
          QCheck_alcotest.to_alcotest qcheck_pka_necessity;
          QCheck_alcotest.to_alcotest qcheck_pka_fuzz_safety;
          QCheck_alcotest.to_alcotest qcheck_cover_heredity;
        ] );
      ( "zcpa",
        [
          Alcotest.test_case "honest" `Quick test_zcpa_honest;
          Alcotest.test_case "decider of oracle" `Quick test_zcpa_decider_of_oracle;
          Alcotest.test_case "safety battery" `Quick test_zcpa_safety_battery;
          QCheck_alcotest.to_alcotest qcheck_zcpa_sufficiency;
          QCheck_alcotest.to_alcotest qcheck_zcpa_necessity;
          QCheck_alcotest.to_alcotest qcheck_bside_agreement;
          Alcotest.test_case "stale-report regression" `Quick
            test_stale_report_attack_regression;
          QCheck_alcotest.to_alcotest qcheck_zcpa_generalizes_cpa;
          QCheck_alcotest.to_alcotest qcheck_hierarchy;
          QCheck_alcotest.to_alcotest qcheck_round_bounds;
          QCheck_alcotest.to_alcotest qcheck_decision_stability;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "fools naive" `Quick test_attack_fools_naive;
          Alcotest.test_case "validation" `Quick test_attack_validation;
          Alcotest.test_case "forged structure" `Quick
            test_forged_structure_indistinguishable;
          Alcotest.test_case "strategy menu" `Quick test_strategy_menu_runs;
          Alcotest.test_case "fictitious ignored" `Quick
            test_fictitious_node_ignored;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "cpa complete" `Quick test_cpa_complete_graph;
          Alcotest.test_case "cpa path blocked" `Quick test_cpa_blocked_on_path;
          Alcotest.test_case "ppa solvable+runs" `Quick test_ppa_solvable_and_runs;
          Alcotest.test_case "ppa flip safety" `Quick test_ppa_safety_under_flip;
          Alcotest.test_case "dolev routes" `Quick test_dolev_routes_disjoint;
          Alcotest.test_case "dolev delivers" `Quick test_dolev_delivers;
          Alcotest.test_case "dolev flip" `Quick test_dolev_survives_flip;
          Alcotest.test_case "dolev beyond t" `Quick test_dolev_beyond_tolerance;
          QCheck_alcotest.to_alcotest qcheck_dolev_routes;
          Alcotest.test_case "naive honest" `Quick test_naive_unsafe_but_fast;
        ] );
    ]
