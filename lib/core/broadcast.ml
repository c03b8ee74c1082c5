open Rmt_base
open Rmt_graph
open Rmt_knowledge

(* Definition 10: unlike the RMT variant, the shielded side B may sit
   anywhere in the graph.  It suffices to consider connected B with
   C = N(B) (the conditions on C₂ are monotone and a full cut dominates
   its component-wise boundary), so this is Cut's boundary search under
   the ad hoc view, run from every seed outside N[D].  To enumerate each
   candidate exactly once, B is anchored at its minimum element: the seed's
   search forbids every smaller node.  One view-nodes cache serves all
   seeds. *)
let find_zpp_cut (inst : Instance.t) =
  let g = inst.graph in
  let forbidden_base = Graph.closed_neighborhood inst.dealer g in
  let view = View.ad_hoc g in
  let local = Joint.view_nodes_cache view in
  List.fold_left
    (fun (acc : Cut.verdict) seed ->
      if Option.is_some acc.cut_found then acc
      else
        let v =
          Cut.boundary_search g inst.structure ~view ~local ~seed
            ~forbidden:(Nodeset.union forbidden_base (Nodeset.range 0 seed))
        in
        { v with complete = acc.complete && v.complete;
          visited = acc.visited + v.visited })
    { cut_found = None; complete = true; visited = 0 }
    (Nodeset.elements (Nodeset.diff (Graph.nodes g) forbidden_base))

let solvable inst = Solvability.of_verdict (find_zpp_cut inst)

(* Node v is blocked iff an RMT 𝒵-pp cut shields it as the receiver: Cut's
   boundary search from v avoiding N[D] under the ad hoc view, the search
   find_rmt_zpp_cut runs.  One view-nodes cache serves every v. *)
let blocked_nodes (inst : Instance.t) =
  let g = inst.graph in
  let forbidden = Graph.closed_neighborhood inst.dealer g in
  let view = View.ad_hoc g in
  let local = Joint.view_nodes_cache view in
  (* A witness's B is connected, avoids N[D] and passes the cut test, so
     it shields every member, not just the seed: mark them all and skip
     their own searches. *)
  Nodeset.fold
    (fun v blocked ->
      if Nodeset.mem v blocked then blocked
      else
        match
          (Cut.boundary_search g inst.structure ~view ~local ~seed:v
             ~forbidden)
            .cut_found
        with
        | Some w -> Nodeset.union w.b_side blocked
        | None -> blocked)
    (Graph.nodes g) Nodeset.empty

type run_result = {
  deciders : int;
  honest : int;
  wrong : int;
  complete : bool;
}

let run ?(adversary = Rmt_net.Engine.no_adversary) (inst : Instance.t)
    ~x_dealer =
  let decider = Zcpa.decider_of_oracle (Zcpa.direct_oracle inst) in
  let auto = Zcpa.automaton ~forward_all:true ~decider inst ~x_dealer in
  let outcome = Rmt_net.Engine.run ~graph:inst.graph ~adversary auto in
  let honest_players =
    Nodeset.remove inst.dealer
      (Nodeset.diff (Graph.nodes inst.graph) adversary.Rmt_net.Engine.corrupted)
  in
  let deciders = ref 0 and wrong = ref 0 in
  Nodeset.iter
    (fun v ->
      match Rmt_net.Engine.decision_of outcome v with
      | Some x ->
        incr deciders;
        if x <> x_dealer then incr wrong
      | None -> ())
    honest_players;
  let honest = Nodeset.size honest_players in
  {
    deciders = !deciders;
    honest;
    wrong = !wrong;
    complete = !deciders = honest && !wrong = 0;
  }
