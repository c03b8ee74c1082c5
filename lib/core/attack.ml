open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_net

type verdict = {
  decision_e : int option;
  decision_e' : int option;
  views_agree : bool;
  safety_broken : bool;
  observed : (int * (int option * int option)) list;
  truncated : bool;
}

(* A message of the paired execution: sent in run e, in run e', or in
   both — the last by a node corrupted in one run, which sends there
   exactly what its honest twin sends in the other. *)
type 'm tagged = E of 'm | E' of 'm | Both of 'm

let co_simulate ~graph ~c1 ~c2 (auto_e : _ Engine.automaton)
    (auto_e' : _ Engine.automaton) ~receiver =
  let nodes = Graph.nodes graph in
  if not (Nodeset.disjoint c1 c2) then
    invalid_arg "Attack.co_simulate: C1 and C2 must be disjoint";
  if Nodeset.mem receiver c1 || Nodeset.mem receiver c2 then
    invalid_arg "Attack.co_simulate: the receiver must be honest";
  if not (Nodeset.subset (Nodeset.add receiver (Nodeset.union c1 c2)) nodes)
  then invalid_arg "Attack.co_simulate: nodes outside the graph";
  (* [v]'s product (state, sends) from its (state, sends) per honest run *)
  let emit v side_e side_e' =
    let tag wrap = function
      | None -> []
      | Some (_, sends) ->
        List.map
          (fun (s : _ Engine.send) -> { s with payload = wrap s.payload })
          sends
    in
    ( (Option.map fst side_e, Option.map fst side_e'),
      tag (fun m -> if Nodeset.mem v c2 then Both m else E m) side_e
      @ tag (fun m -> if Nodeset.mem v c1 then Both m else E' m) side_e' )
  in
  let init v =
    emit v
      (if Nodeset.mem v c1 then None else Some (auto_e.init v))
      (if Nodeset.mem v c2 then None else Some (auto_e'.init v))
  in
  let step v (st_e, st_e') ~round ~inbox =
    (* each side is stepped as Engine.run steps it: in round 1 and
       whenever its run delivers it a message *)
    let side (auto : _ Engine.automaton) st in_run =
      Option.map
        (fun st ->
          match List.filter_map in_run inbox with
          | [] when round > 1 -> (st, [])
          | inbox -> auto.step v st ~round ~inbox)
        st
    in
    emit v
      (side auto_e st_e (function
         | u, (E m | Both m) -> Some (u, m)
         | _, E' _ -> None))
      (side auto_e' st_e' (function
         | u, (E' m | Both m) -> Some (u, m)
         | _, E _ -> None))
  in
  let outcome =
    Engine.run ~graph ~adversary:Engine.no_adversary
      { init; step; decision = (fun _ -> None) }
  in
  let decisions (st_e, st_e') =
    (Option.bind st_e auto_e.decision, Option.bind st_e' auto_e'.decision)
  in
  let de, de' = decisions (List.assoc receiver outcome.states) in
  {
    decision_e = de;
    decision_e' = de';
    views_agree = de = de';
    safety_broken = de <> None && de = de';
    observed =
      List.filter_map
        (function
          | v, ((Some _, Some _) as st) -> Some (v, decisions st)
          | _ -> None)
        outcome.states;
    truncated = outcome.stats.truncated;
  }

let forged_structure (inst : Instance.t) c2 =
  let z' = Structure.add_set (Nodeset.remove inst.dealer c2) inst.structure in
  Instance.with_structure inst z'

(* The pair run e (real instance, x0) / e' (forged instance, x1) of one
   protocol, given its automaton per instance. *)
let against automaton (inst : Instance.t) (w : Cut.witness) ~x0 ~x1 =
  co_simulate ~graph:inst.graph ~c1:w.c1 ~c2:w.c2
    (automaton inst ~x_dealer:x0)
    (automaton (forged_structure inst w.c2) ~x_dealer:x1)
    ~receiver:inst.receiver

let against_rmt_pka =
  against (fun inst ~x_dealer -> Rmt_pka.automaton inst ~x_dealer)

let against_zcpa =
  against (fun inst ~x_dealer ->
      Zcpa.automaton
        ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
        inst ~x_dealer)
