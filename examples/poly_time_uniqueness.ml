(* Poly-time uniqueness, step by step (Section 5, Theorem 9).

   Z-CPA is a protocol SCHEME: its rule 2 calls a membership-check
   subroutine "is this sender set N outside my local structure Z_v?" as a
   black box.  The paper's surprising result is that this subroutine is
   not just sufficient but NECESSARY: any unique fully polynomial RMT
   protocol Pi can be turned into a polynomial implementation of the
   subroutine, by simulating Pi on tiny "basic instances" (Figure 1) in
   which the corrupted players of one run mirror the honest players of a
   paired run (Figure 2).  Hence either Z-CPA is fully polynomial or
   nothing unique is: poly-time uniqueness.

   This example walks the construction on one concrete decision.

   Run with: dune exec examples/poly_time_uniqueness.exe *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack

let printf = Printf.printf
let dec = function None -> "⊥" | Some x -> string_of_int x

let () =
  (* The stage: a 3-wide onion, one corruptible node, ad hoc knowledge. *)
  let g = Generators.layered ~width:3 ~depth:2 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~dealer:0 ~receiver:7
  in
  printf "Instance: onion 3x2, dealer 0, receiver 7, any 1 node corruptible.\n\n";

  (* Step 1 — Z-CPA with the DIRECT oracle.  Watch the receiver's last
     membership check: it has heard value 5 from its three neighbors
     {4,5,6} and asks whether {4,5,6} could be entirely corrupted. *)
  let checks = ref [] in
  let spying_oracle ~v n =
    let answer = not (Structure.mem n (Instance.local_structure inst v)) in
    if v = 7 then checks := (n, answer) :: !checks;
    answer
  in
  let direct = Zcpa.run ~oracle:spying_oracle inst ~x_dealer:5 in
  printf "Z-CPA with the direct oracle decides: %s\n" (dec direct.decided);
  List.iter
    (fun (n, answer) ->
      printf "  receiver asked: is %s certifiably honest?  -> %b\n"
        (Nodeset.to_string n) answer)
    (List.rev !checks);

  (* Step 2 — the same question, answered WITHOUT the oracle.  The
     receiver builds the basic instance of Figure 1: dealer, its heard-from
     neighbors as the middle set, itself as receiver. *)
  let middle = Nodeset.of_list [ 4; 5; 6 ] in
  let basic =
    Self_reduction.basic_instance ~dealer:0 ~receiver:7 ~middle
      ~structure:(Instance.local_structure inst 7)
  in
  printf "\nBasic instance (Figure 1): dealer 0, middle %s, receiver 7\n"
    (Nodeset.to_string middle);
  printf "Solvable (no two admissible sets cover the middle): %b\n"
    (Self_reduction.basic_solvable ~middle
       ~structure:(Instance.local_structure inst 7));

  (* Step 3 — the paired runs e_0^l / e_1^l for the class A_l = {4,5,6}
     (all senders agreed, so the complement class is empty... take a
     proper split to see the mechanics: suppose {4,5} said 0 and {6} said
     1).  For l = the {4,5}-class: run e_0 has dealer value 0 and
     corruption {6} mirroring run e_1, which has dealer value 1 and
     corruption {4,5} mirroring e_0. *)
  let show_l name c1 c2 =
    let v =
      Attack.co_simulate ~graph:basic.graph ~c1 ~c2
        (Zcpa.automaton
           ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle basic))
           basic ~x_dealer:0)
        (Zcpa.automaton
           ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle basic))
           basic ~x_dealer:1)
        ~receiver:7
    in
    printf "  %s: e_0 (x=0, corrupt %s) decides %s | e_1 (x=1, corrupt %s) decides %s\n"
      name
      (Nodeset.to_string c1) (dec v.decision_e)
      (Nodeset.to_string c2) (dec v.decision_e');
    v.decision_e = Some 0
  in
  printf "\nDecision protocol (Thm 9), hypothetical classes {4,5}=0 vs {6}=1:\n";
  let l1 = show_l "l = class {4,5}" (Nodeset.of_list [ 6 ]) (Nodeset.of_list [ 4; 5 ]) in
  let l2 = show_l "l = class {6}  " (Nodeset.of_list [ 4; 5 ]) (Nodeset.of_list [ 6 ]) in
  printf "  certified: %s\n"
    (match (l1, l2) with
     | true, false -> "the {4,5}-class — exactly the oracle's answer"
     | false, true -> "the {6}-class?!"
     | _ -> "ambiguous?!");

  (* Step 4 — end-to-end: Z-CPA with the simulated decider on the original
     instance, honest and attacked, matches the direct-oracle runs. *)
  printf "\nEnd-to-end with the simulated decider (Pi = Z-CPA itself):\n";
  let sim =
    Zcpa.run ~decider:(Self_reduction.simulated_decider inst) inst ~x_dealer:5
  in
  printf "  honest network: direct=%s simulated=%s\n" (dec direct.decided)
    (dec sim.decided);
  let corrupted = Nodeset.singleton 1 in
  let flip =
    Program.uniform ~seed:0 corrupted Program.Silent [ Program.Forge_trail 9 ]
  in
  let attack () = Strategy_gen.compile_zcpa flip inst ~x_dealer:5 in
  let d = Zcpa.run ~adversary:(attack ()) inst ~x_dealer:5 in
  let s =
    Zcpa.run ~decider:(Self_reduction.simulated_decider inst)
      ~adversary:(attack ()) inst ~x_dealer:5
  in
  printf "  node 1 flips to 9: direct=%s simulated=%s\n" (dec d.decided)
    (dec s.decided);
  printf
    "\nMoral: the membership check reduces to RMT on basic instances, so\n\
     any unique fully polynomial RMT protocol would make Z-CPA fully\n\
     polynomial too (Corollary 10).\n"
