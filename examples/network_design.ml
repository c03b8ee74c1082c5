(* Network design: the paper's practical by-product.

   "The new cut notion can be used to determine the exact subgraph in
   which RMT is possible in a network design phase."  Given a candidate
   topology and a threat model, we map out which receivers the dealer can
   reach reliably, find the cheapest single link whose addition rescues an
   unreachable receiver, and render the result as Graphviz.

   Run with: dune exec examples/network_design.exe *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core

let dealer = 0

let feasible g structure receiver =
  let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer ~receiver in
  Solvability.ad_hoc inst = Solvability.Solvable

let reachable_set g structure =
  Nodeset.filter
    (fun v -> v <> dealer && feasible g structure v)
    (Graph.nodes g)

let () =
  (* Design draft: a ladder backbone — cheap, but only 2-connected. *)
  let g = Generators.ladder 4 in
  let structure g = Builders.global_threshold g ~dealer 1 in
  Printf.printf "Draft topology: ladder, %d nodes, %d edges\n"
    (Graph.num_nodes g) (Graph.num_edges g);

  let ok = reachable_set g (structure g) in
  Printf.printf "Receivers reachable under 1 corruption: %s\n"
    (Nodeset.to_string ok);

  (* The far corner (node 7) is not among them.  Search the cheapest fix:
     a single extra link that makes node 7 reachable. *)
  let target = 7 in
  if Nodeset.mem target ok then Printf.printf "Node %d already reachable.\n" target
  else begin
    Printf.printf "Node %d is NOT reachable; searching for a rescue link...\n"
      target;
    let candidates =
      let nodes = Nodeset.elements (Graph.nodes g) in
      List.concat_map
        (fun u ->
          List.filter_map
            (fun v ->
              if u < v && not (Graph.mem_edge u v g) then Some (u, v) else None)
            nodes)
        nodes
    in
    let fixes =
      List.filter
        (fun (u, v) ->
          let g' = Graph.add_edge u v g in
          feasible g' (structure g') target)
        candidates
    in
    (match fixes with
     | [] -> Printf.printf "No single link suffices.\n"
     | (u, v) :: _ as all ->
       Printf.printf "%d candidate links work; picking %d-%d.\n"
         (List.length all) u v;
       let g' = Graph.add_edge u v g in
       let ok' = reachable_set g' (structure g') in
       Printf.printf "Now reachable: %s\n" (Nodeset.to_string ok');
       (* verify end-to-end: run the actual protocol on the fixed design *)
       let inst =
         Instance.ad_hoc_of ~graph:g' ~structure:(structure g') ~dealer
           ~receiver:target
       in
       let r = Zcpa.run inst ~x_dealer:5 in
       Printf.printf "Z-CPA on the fixed design delivers: %s\n"
         (match r.decided with None -> "⊥" | Some x -> string_of_int x);
       (* the blueprint for the design review, summarized by its size and
          digest; `rmt dot` prints such a rendering in full *)
       let dot = Dot.instance_dot ~dealer ~receiver:target g' in
       Printf.printf "Blueprint: %d-line Graphviz DOT, MD5 %s\n"
         (List.length (String.split_on_char '\n' (String.trim dot)))
         (Digest.to_hex (Digest.string dot)))
  end;

  (* Sensitivity: how does reachability degrade as the threat grows?  The
     onion topology makes the 2t+1-connectivity cliff visible: width 4
     supports t = 1 but not t = 2. *)
  Printf.printf "\nThreat sensitivity on the width-4 onion (10 nodes):\n";
  let onion = Generators.layered ~width:4 ~depth:2 in
  List.iter
    (fun t ->
      let s = Builders.global_threshold onion ~dealer t in
      Printf.printf "  t=%d: %d/%d receivers reachable\n" t
        (Nodeset.size (reachable_set onion s))
        (Graph.num_nodes onion - 1))
    [ 0; 1; 2; 3 ]
