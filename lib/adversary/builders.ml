open Rmt_base
open Rmt_graph

let non_dealer_nodes g ~dealer = Nodeset.remove dealer (Graph.nodes g)

let global_threshold g ~dealer t =
  Structure.threshold ~ground:(non_dealer_nodes g ~dealer) t

let t_local g ~dealer t =
  let ground = non_dealer_nodes g ~dealer in
  if Nodeset.size ground > 20 then
    invalid_arg "Builders.t_local: graph too large for subset enumeration";
  Structure.of_predicate ~ground (fun z ->
      Nodeset.for_all
        (fun v -> Nodeset.size (Nodeset.inter z (Graph.neighbors v g)) <= t)
        (Graph.nodes g))

let from_maximal g ~dealer sets =
  let ground = non_dealer_nodes g ~dealer in
  Structure.of_sets ~ground (List.map (Nodeset.inter ground) sets)

let random_antichain rng g ~dealer ~sets ~max_size =
  let ground = non_dealer_nodes g ~dealer in
  let candidates =
    List.init sets (fun _ ->
        let size = 1 + Prng.int rng (max 1 max_size) in
        Prng.sample rng ground size)
  in
  Structure.of_sets ~ground candidates
