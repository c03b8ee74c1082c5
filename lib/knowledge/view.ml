open Rmt_base
open Rmt_graph
open Rmt_adversary

type kind = Full | Ad_hoc | Radius of int | Custom

type t = {
  g : Graph.t;
  assign : int -> Graph.t; (* total: empty graph off the node set *)
  label : string;
  kind : kind;
}

let guard g assign v =
  if Graph.mem_node v g then begin
    let gv = assign v in
    if not (Graph.mem_node v gv) then
      invalid_arg "View: v must belong to γ(v)";
    if not (Graph.is_subgraph gv g) then
      invalid_arg "View: γ(v) must be a subgraph of G";
    gv
  end
  else Graph.empty

let full g = { g; assign = (fun _ -> g); label = "full"; kind = Full }

let star_of g v =
  Nodeset.fold
    (fun u acc -> Graph.add_edge v u acc)
    (Graph.neighbors v g)
    (Graph.add_node v Graph.empty)

let ad_hoc g =
  { g; assign = (fun v -> star_of g v); label = "ad-hoc"; kind = Ad_hoc }

let radius k g =
  {
    g;
    assign = (fun v -> Graph.restrict_to_radius v k g);
    label = Printf.sprintf "radius-%d" k;
    kind = Radius k;
  }

let of_assignment g f =
  (* validate eagerly on all nodes so mistakes surface at construction *)
  Nodeset.iter (fun v -> ignore (guard g f v)) (Graph.nodes g);
  { g; assign = f; label = "custom"; kind = Custom }

let kind t = t.kind

let rebuild t g =
  match t.kind with
  | Full -> Some (full g)
  | Ad_hoc -> Some (ad_hoc g)
  | Radius k -> Some (radius k g)
  | Custom -> None

let graph t = t.g

let view t v = if Graph.mem_node v t.g then t.assign v else Graph.empty

(* read off the graph for every rule but a custom one: G's nodes, N[v]
   or the radius-k ball, with no view graph built *)
let view_nodes t v =
  if not (Graph.mem_node v t.g) then Nodeset.empty
  else
    match t.kind with
    | Full -> Graph.nodes t.g
    | Ad_hoc -> Graph.closed_neighborhood v t.g
    | Radius k -> Graph.ball v k t.g
    | Custom -> Graph.nodes (t.assign v)

(* Full, ad hoc and radius >= 1 views contain the star by construction;
   radius 0 and custom assignments are checked node by node. *)
let covers_stars t =
  match t.kind with
  | Full | Ad_hoc -> true
  | Radius k when k >= 1 -> true
  | Radius _ | Custom ->
    Nodeset.for_all
      (fun v ->
        Nodeset.subset (Graph.closed_neighborhood v t.g) (view_nodes t v))
      (Graph.nodes t.g)

let joint t s =
  Graph.union_all (Nodeset.fold (fun v acc -> view t v :: acc) s [])

let joint_nodes t s = Graph.nodes (joint t s)

let leq t' t =
  Graph.equal t'.g t.g
  && Nodeset.for_all
       (fun v -> Graph.is_subgraph (view t' v) (view t v))
       (Graph.nodes t.g)

let local_structure t z v = Structure.restrict (view_nodes t v) z

let label t = t.label

let pp ppf t =
  Format.fprintf ppf "view<%s over %d nodes>" t.label (Graph.num_nodes t.g)
