open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

type t =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Add_node of int * Nodeset.t
  | Remove_node of int
  | Add_set of Nodeset.t
  | Remove_set of Nodeset.t

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Rebuild the instance over an edited graph: transport the view rule,
   keep the structure (restricted to survivors), re-check every invariant
   through Instance.make. *)
let with_graph (inst : Instance.t) g' =
  match View.rebuild inst.view g' with
  | None -> err "cannot transport a custom view to a modified topology"
  | Some view -> (
    let structure =
      if Nodeset.subset (Structure.ground inst.structure) (Graph.nodes g')
      then inst.structure
      else Structure.restrict (Graph.nodes g') inst.structure
    in
    try
      Ok
        (Instance.make ~graph:g' ~structure ~view ~dealer:inst.dealer
           ~receiver:inst.receiver)
    with Invalid_argument m -> err "%s" m)

let with_structure (inst : Instance.t) structure =
  try Ok (Instance.with_structure inst structure)
  with Invalid_argument m -> err "%s" m

let apply (inst : Instance.t) delta =
  let g = inst.graph in
  match delta with
  | Add_edge (u, v) ->
    if u = v then err "add-edge %d %d: self-loop" u v
    else if not (Graph.mem_node u g) then err "add-edge: no node %d" u
    else if not (Graph.mem_node v g) then err "add-edge: no node %d" v
    else if Graph.mem_edge u v g then err "add-edge %d %d: edge exists" u v
    else with_graph inst (Graph.add_edge u v g)
  | Remove_edge (u, v) ->
    if not (Graph.mem_edge u v g) then err "remove-edge %d %d: no such edge" u v
    else with_graph inst (Graph.remove_edges [ (u, v) ] g)
  | Add_node (v, links) ->
    if v < 0 then err "add-node: negative id %d" v
    else if Graph.mem_node v g then err "add-node %d: node exists" v
    else if not (Nodeset.subset links (Graph.nodes g)) then
      err "add-node %d: a link endpoint is not in the graph" v
    else
      with_graph inst
        (Nodeset.fold (fun u acc -> Graph.add_edge v u acc) links
           (Graph.add_node v g))
  | Remove_node v ->
    if not (Graph.mem_node v g) then err "remove-node: no node %d" v
    else if v = inst.dealer then err "remove-node %d: the dealer" v
    else if v = inst.receiver then err "remove-node %d: the receiver" v
    else with_graph inst (Graph.remove_node v g)
  | Add_set z ->
    if not (Nodeset.subset z (Graph.nodes g)) then
      err "add-set %s: outside the graph" (Nodeset.to_string z)
    else if Nodeset.mem inst.dealer z then
      err "add-set %s: contains the dealer" (Nodeset.to_string z)
    else with_structure inst (Structure.add_set z inst.structure)
  | Remove_set z ->
    let maximal = Structure.maximal_sets inst.structure in
    if not (List.exists (Nodeset.equal z) maximal) then
      err "remove-set %s: not a maximal set" (Nodeset.to_string z)
    else
      with_structure inst
        (Structure.of_sets
           ~ground:(Structure.ground inst.structure)
           (List.filter (fun m -> not (Nodeset.equal z m)) maximal))

let apply_all inst deltas =
  List.fold_left
    (fun acc d -> Result.bind acc (fun inst -> apply inst d))
    (Ok inst) deltas

let pp ppf = function
  | Add_edge (u, v) -> Format.fprintf ppf "add-edge %d %d" u v
  | Remove_edge (u, v) -> Format.fprintf ppf "remove-edge %d %d" u v
  | Add_node (v, links) ->
    Format.fprintf ppf "add-node %d %a" v Nodeset.pp links
  | Remove_node v -> Format.fprintf ppf "remove-node %d" v
  | Add_set z -> Format.fprintf ppf "add-set %a" Nodeset.pp z
  | Remove_set z -> Format.fprintf ppf "remove-set %a" Nodeset.pp z
