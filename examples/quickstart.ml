(* Quickstart: sixty seconds with the library.

   We build an RMT instance (graph + adversary structure + view function +
   dealer + receiver), ask whether RMT is solvable at all, run RMT-PKA and
   Z-CPA on a simulated synchronous network — first honestly, then against
   a Byzantine relay — and finally show what happens on an instance where
   no algorithm can succeed.

   Run with: dune exec examples/quickstart.exe *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack

let dec = function
  | None -> "⊥ (no decision)"
  | Some x -> Printf.sprintf "%d" x

let () =
  (* A 3-wide, 2-deep "onion": dealer 0, two layers {1,2,3} and {4,5,6},
     receiver 7.  Vertex connectivity between dealer and receiver is 3. *)
  let g = Generators.layered ~width:3 ~depth:2 in
  Printf.printf "Topology: %d nodes, %d edges, dealer 0, receiver 7\n"
    (Graph.num_nodes g) (Graph.num_edges g);

  (* The adversary may corrupt any single node (global threshold 1). *)
  let structure = Builders.global_threshold g ~dealer:0 1 in

  (* Players only know their own neighborhood: the ad hoc model. *)
  let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:7 in

  (* Feasibility first: the tight RMT-cut characterization (Thms 3+5). *)
  Printf.printf "Feasibility (partial knowledge): %s\n"
    (Format.asprintf "%a" Solvability.pp_feasibility
       (Solvability.partial_knowledge inst));

  (* Run RMT-PKA on an honest network. *)
  let r = Rmt_pka.run inst ~x_dealer:42 in
  Printf.printf "RMT-PKA, honest network:   %s  (%d rounds, %d messages)\n"
    (dec r.decided) r.rounds r.messages;

  (* Now corrupt node 1 and make it flip every relayed value to 666: an
     attack program, compiled against RMT-PKA. *)
  let flip =
    Program.uniform ~seed:0 (Nodeset.singleton 1) Program.Honest
      [ Program.Flip_value 666 ]
  in
  let adv = Strategy_gen.compile_pka flip inst ~x_dealer:42 in
  let r = Rmt_pka.run ~adversary:adv inst ~x_dealer:42 in
  Printf.printf "RMT-PKA vs value flipper:  %s  (safety: never 666)\n"
    (dec r.decided);

  (* Z-CPA — the simple certified-propagation protocol — also works here. *)
  let calls, oracle = Zcpa.counting_oracle (Zcpa.direct_oracle inst) in
  let z = Zcpa.run ~oracle inst ~x_dealer:42 in
  Printf.printf "Z-CPA, honest network:     %s  (%d membership checks)\n"
    (dec z.decided) !calls;

  (* Shrink the graph to connectivity 2 and RMT becomes impossible: an
     RMT-cut appears, and the two-face attack (Fig 2) makes any safe
     protocol stay silent forever. *)
  let g2 = Generators.layered ~width:2 ~depth:2 in
  let inst2 =
    Instance.ad_hoc_of ~graph:g2
      ~structure:(Builders.global_threshold g2 ~dealer:0 1)
      ~dealer:0 ~receiver:5
  in
  Printf.printf "\nNarrower topology: %s\n"
    (Format.asprintf "%a" Solvability.pp_feasibility
       (Solvability.partial_knowledge inst2));
  (match (Cut.find_rmt_cut inst2).cut_found with
   | None -> ()
   | Some w ->
     Printf.printf "Witness: %s\n" (Format.asprintf "%a" Cut.pp_witness w);
     let v = Attack.against_rmt_pka inst2 w ~x0:0 ~x1:1 in
     Printf.printf
       "Two-face attack: run e decides %s, run e' decides %s — RMT-PKA \
        refuses to guess.\n"
       (dec v.decision_e) (dec v.decision_e'))
