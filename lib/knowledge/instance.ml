open Rmt_base
open Rmt_graph
open Rmt_adversary

type t = {
  graph : Graph.t;
  structure : Structure.t;
  view : View.t;
  dealer : int;
  receiver : int;
}

let make ~graph ~structure ~view ~dealer ~receiver =
  if not (Graph.mem_node dealer graph) then
    invalid_arg "Instance.make: dealer not in graph";
  if not (Graph.mem_node receiver graph) then
    invalid_arg "Instance.make: receiver not in graph";
  if dealer = receiver then invalid_arg "Instance.make: dealer = receiver";
  if not (Graph.equal (View.graph view) graph) then
    invalid_arg "Instance.make: view is over a different graph";
  if not (Nodeset.subset (Structure.ground structure) (Graph.nodes graph)) then
    invalid_arg "Instance.make: structure ground outside graph";
  if Nodeset.mem dealer (Structure.ground structure) then
    invalid_arg "Instance.make: the dealer must be outside the structure";
  { graph; structure; view; dealer; receiver }

let local_structure t v = View.local_structure t.view t.structure v

let local_view t v = View.view t.view v

let admissible t z = Structure.mem z t.structure

let corruption_sets t = Structure.maximal_sets t.structure

let num_nodes t = Graph.num_nodes t.graph

let with_structure t structure =
  if not (Nodeset.subset (Structure.ground structure) (Graph.nodes t.graph))
  then invalid_arg "Instance.with_structure: ground outside graph";
  if Nodeset.mem t.dealer (Structure.ground structure) then
    invalid_arg "Instance.with_structure: dealer inside structure";
  { t with structure }

let with_view t view =
  if not (Graph.equal (View.graph view) t.graph) then
    invalid_arg "Instance.with_view: view over a different graph";
  { t with view }

let ad_hoc_of ~graph ~structure ~dealer ~receiver =
  make ~graph ~structure ~view:(View.ad_hoc graph) ~dealer ~receiver

let pp ppf t =
  Format.fprintf ppf
    "@[<v>instance: n=%d m=%d dealer=%d receiver=%d %a@,structure: %a@]"
    (Graph.num_nodes t.graph) (Graph.num_edges t.graph) t.dealer t.receiver
    View.pp t.view Structure.pp t.structure
