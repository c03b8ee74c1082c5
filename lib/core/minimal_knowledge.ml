open Rmt_base
open Rmt_graph
open Rmt_knowledge

let instance_with_radius ~graph ~structure ~dealer ~receiver k =
  Instance.make ~graph ~structure ~view:(View.radius k graph) ~dealer ~receiver

let radius_frontier ~graph ~structure ~dealer ~receiver =
  let diam = Option.value (Connectivity.diameter graph) ~default:0 in
  List.init (diam + 1) (fun k ->
      let inst = instance_with_radius ~graph ~structure ~dealer ~receiver k in
      (k, Solvability.partial_knowledge inst))

type minimal =
  | Radius of int
  | Unsolvable
  | Unknown

let minimal_radius ~graph ~structure ~dealer ~receiver =
  let frontier = radius_frontier ~graph ~structure ~dealer ~receiver in
  match
    List.find_map
      (fun (k, f) -> if Solvability.is_solvable f then Some k else None)
      frontier
  with
  | Some k -> Radius k
  | None ->
    if
      List.exists
        (fun (_, f) -> Solvability.feasibility_equal f Solvability.Unknown)
        frontier
    then Unknown
    else Unsolvable

let views_of_radii graph radii =
  View.of_assignment graph (fun v ->
      match List.assoc_opt v radii with
      | Some k -> Graph.restrict_to_radius v k graph
      | None -> Graph.restrict_to_radius v 0 graph)

let greedy_minimal_views (inst : Instance.t) =
  let graph = inst.graph in
  let diam = Option.value (Connectivity.diameter graph) ~default:0 in
  let nodes = Nodeset.elements (Graph.nodes graph) in
  let solvable radii =
    let view = views_of_radii graph radii in
    let inst' = Instance.with_view inst view in
    Solvability.is_solvable (Solvability.partial_knowledge inst')
  in
  let full = List.map (fun v -> (v, diam)) nodes in
  if not (solvable full) then None
  else begin
    (* shrink each node's radius as far as solvability allows, one node at
       a time; the result is minimal w.r.t. single-node shrinking *)
    let shrink radii v =
      let rec go radii =
        let k = List.assoc v radii in
        if k = 0 then radii
        else begin
          let candidate =
            List.map (fun (u, r) -> if u = v then (u, k - 1) else (u, r)) radii
          in
          if solvable candidate then go candidate else radii
        end
      in
      go radii
    in
    Some (List.fold_left shrink full nodes)
  end
