(* Partial knowledge on a metro mesh: the gap the paper closes.

   A 3x4 wireless mesh (node i*4+j at row i, column j):

        0 --  1 --  2 --  3
        |     |     |     |
        4 --  5 --  6 --  7
        |     |     |     |
        8 --  9 -- 10 -- 11

   The gateway (0) sends a config update to the far corner (11).  Threat
   intelligence says the compromise is ONE of: router 5, router 6, or the
   vendor-batch pair {7, 8} — a general adversary structure no global or
   local threshold expresses.

   The punchline: with ad hoc knowledge (each router knows only its own
   links) RMT is IMPOSSIBLE here, and so it stays with 1-hop views — but
   2-hop views make it solvable, and RMT-PKA delivers.  This is exactly
   the regime between "ad hoc" and "full knowledge" that the partial
   knowledge model captures and where RMT-PKA is the unique algorithm.

   Run with: dune exec examples/mesh_partial_knowledge.exe *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack

let printf = Printf.printf
let dec = function None -> "⊥" | Some x -> string_of_int x

let () =
  let g = Generators.grid 3 4 in
  let dealer = 0 and receiver = 11 in
  let ns = Nodeset.of_list in
  let structure =
    Builders.from_maximal g ~dealer [ ns [ 5 ]; ns [ 6 ]; ns [ 7; 8 ] ]
  in
  printf "Mesh: %d routers, %d links; gateway %d, target %d\n"
    (Graph.num_nodes g) (Graph.num_edges g) dealer receiver;
  printf "Threat model: one of {5}, {6}, {7,8} is compromised\n\n";

  (* Feasibility across the knowledge spectrum. *)
  let feas label view =
    let inst = Instance.make ~graph:g ~structure ~view ~dealer ~receiver in
    printf "%-16s %s\n" label
      (Format.asprintf "%a" Solvability.pp_feasibility
         (Solvability.partial_knowledge inst))
  in
  feas "ad hoc:" (View.ad_hoc g);
  feas "radius-1:" (View.radius 1 g);
  feas "radius-2:" (View.radius 2 g);
  feas "full:" (View.full g);

  (* The minimal-knowledge machinery confirms radius 2 is the frontier. *)
  (match
     Minimal_knowledge.minimal_radius ~graph:g ~structure ~dealer ~receiver
   with
   | Minimal_knowledge.Radius k ->
     printf "\nMinimal uniform view radius: %d\n\n" k
   | Minimal_knowledge.Unsolvable -> printf "\nUnsolvable at every radius\n\n"
   | Minimal_knowledge.Unknown ->
     printf "\nUndecided: a search ran out of budget\n\n");

  (* Z-CPA is stuck: it only ever uses neighborhood knowledge.  On this
     instance it still delivers when nobody actually attacks — but it is
     not resilient: some admissible corruption defeats it. *)
  let ad_hoc_inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer ~receiver in
  let z = Zcpa.run ad_hoc_inst ~x_dealer:7 in
  let zp = Campaign.battery Campaign.Zcpa ad_hoc_inst ~x_dealer:7 ~x_fake:13 in
  printf "Z-CPA (ad hoc), honest network:  %s\n" (dec z.decided);
  printf "Z-CPA under attack:              correct in %d/%d runs — not resilient\n"
    zp.delivered zp.trials;

  (* RMT-PKA with 2-hop views succeeds — honestly and under attack. *)
  let inst =
    Instance.make ~graph:g ~structure ~view:(View.radius 2 g) ~dealer ~receiver
  in
  let r = Rmt_pka.run inst ~x_dealer:7 in
  printf "RMT-PKA (2-hop views), honest:   %s\n" (dec r.decided);

  List.iter
    (fun corrupted ->
      let worst = ref (Some 7) in
      List.iter
        (fun (_, program) ->
          let adversary = Strategy_gen.compile_pka program inst ~x_dealer:7 in
          let r = Rmt_pka.run ~adversary inst ~x_dealer:7 in
          if r.decided <> Some 7 then worst := r.decided)
        (Strategy_gen.pka_menu g ~x_fake:13 corrupted);
      printf "RMT-PKA vs compromised %-8s %s\n"
        (Nodeset.to_string corrupted ^ ":")
        (dec !worst))
    [ ns [ 5 ]; ns [ 6 ]; ns [ 7; 8 ] ];

  (* And the impossibility at 1-hop views is real, not an algorithmic
     shortfall: the two-face attack fools every safe protocol. *)
  let inst1 =
    Instance.make ~graph:g ~structure ~view:(View.radius 1 g) ~dealer ~receiver
  in
  match (Cut.find_rmt_cut inst1).cut_found with
  | None -> printf "\n(unexpected: no cut at radius 1)\n"
  | Some w ->
    printf "\nAt 1-hop views the obstruction is %s\n"
      (Format.asprintf "%a" Cut.pp_witness w);
    let v = Attack.against_rmt_pka inst1 w ~x0:0 ~x1:1 in
    printf "Two-face attack at radius 1: e=%s e'=%s — correctly silent.\n"
      (dec v.decision_e) (dec v.decision_e')
