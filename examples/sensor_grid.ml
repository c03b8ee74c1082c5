(* Sensor field: false confidence, the tight analysis, and a fix.

   A 3x4 field of sensors with king's-move radio links.  A base station
   (corner 0) must deliver commands to the far actuator.  Faults are
   t-locally bounded (Koo's model): in any sensor's radio range at most
   one device is compromised.  The general adversary machinery subsumes
   this as the t-local structure.

   The example makes the paper's point the hard way:

   1. CPA / Z-CPA deliver commands and shrug off every simple attack we
      throw at them — the deployment LOOKS reliable;
   2. the tight RMT Z-pp cut characterization (Thms 7+8) says it is NOT:
      there is a cut witness, and the two-face adversary built from it
      (Fig 2) silences the protocol — no safe protocol can do better;
   3. hardening a few tamper-proof sensors chosen from the witness cuts
      removes every obstruction, and the field becomes provably reliable.

   Run with: dune exec examples/sensor_grid.exe *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack

let printf = Printf.printf
let dec = function None -> "⊥" | Some x -> string_of_int x

let rows = 3
let cols = 4
let base = 0

(* tamper-proof sensors can no longer appear in any corruption set *)
let harden hardened structure =
  let maximal =
    List.map (fun m -> Nodeset.diff m hardened) (Structure.maximal_sets structure)
  in
  Structure.of_sets ~ground:(Structure.ground structure) maximal

let () =
  let g = Generators.king_grid rows cols in
  let actuator = (rows * cols) - 1 in
  let structure = Builders.t_local g ~dealer:base 1 in
  printf "Sensor field %dx%d (king's-move links), base %d, actuator %d\n"
    rows cols base actuator;
  printf "Faults: 1-locally bounded (%d maximal corruption patterns)\n\n"
    (Structure.num_maximal structure);

  let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:base ~receiver:actuator in

  (* Step 1: everything looks fine. *)
  let z = Zcpa.run inst ~x_dealer:1 in
  let c = Rmt_protocols.Cpa.run g ~dealer:base ~receiver:actuator ~t:1 ~x_dealer:1 in
  printf "Z-CPA, honest network: %s    CPA: %s  (they coincide on t-local)\n"
    (dec z.decided) (dec c.decided);
  let b = Campaign.battery Campaign.Zcpa inst ~x_dealer:1 ~x_fake:9 in
  printf "Against the value menu x every corruption pattern: %d/%d correct\n\n"
    b.delivered b.trials;

  (* Step 2: the tight analysis disagrees. *)
  printf "Feasibility (RMT Z-pp cut decider): %s\n"
    (Format.asprintf "%a" Solvability.pp_feasibility (Solvability.ad_hoc inst));
  (match (Cut.find_rmt_zpp_cut inst).cut_found with
   | None -> ()
   | Some w ->
     printf "Witness: %s\n" (Format.asprintf "%a" Cut.pp_witness w);
     let v = Attack.against_zcpa inst w ~x0:0 ~x1:1 in
     printf
       "Two-face adversary from the witness: e=%s e'=%s — the actuator can \
        be starved forever,\nand by Thm 8 NO safe protocol does better.\n\n"
       (dec v.decision_e) (dec v.decision_e'));

  (* Step 3: harden sensors until no cut survives. *)
  let rec fix structure hardened =
    let inst =
      Instance.ad_hoc_of ~graph:g ~structure ~dealer:base ~receiver:actuator
    in
    match (Cut.find_rmt_zpp_cut inst).cut_found with
    | None -> (structure, hardened, inst)
    | Some w ->
      (* make one locally-plausible cut member tamper-proof *)
      let pick =
        match Nodeset.min_elt_opt w.c2 with
        | Some v -> v
        | None -> Option.get (Nodeset.min_elt_opt w.c1)
      in
      let hardened = Nodeset.add pick hardened in
      fix (harden (Nodeset.singleton pick) structure) hardened
  in
  let structure', hardened, inst' = fix structure Nodeset.empty in
  printf "Hardening loop: tamper-proofed sensors %s\n"
    (Nodeset.to_string hardened);
  printf "Feasibility after hardening: %s (%d corruption patterns remain)\n"
    (Format.asprintf "%a" Solvability.pp_feasibility (Solvability.ad_hoc inst'))
    (Structure.num_maximal structure');

  (* and now resilience is real: *)
  let b = Campaign.battery Campaign.Zcpa inst' ~x_dealer:1 ~x_fake:9 in
  printf "Z-CPA after hardening: %d/%d correct under the full battery\n"
    b.delivered b.trials;
  match (Cut.find_rmt_zpp_cut inst').cut_found with
  | Some _ -> printf "(unexpected: still cut)\n"
  | None -> printf "No RMT Z-pp cut remains: reliability is guaranteed.\n"
