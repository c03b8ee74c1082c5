open Rmt_base

(* Adjacency is an array indexed by node id.  The array length is a
   capacity, not the node count: ids are sparse.  All public operations are
   persistent; construction helpers mutate a private copy. *)

type t = {
  nodes : Nodeset.t;
  adj : Nodeset.t array;
}

let empty = { nodes = Nodeset.empty; adj = [||] }

let ensure_capacity g id =
  if id < Array.length g.adj then g.adj
  else begin
    let cap = max (id + 1) (2 * Array.length g.adj) in
    let adj = Array.make cap Nodeset.empty in
    Array.blit g.adj 0 adj 0 (Array.length g.adj);
    adj
  end

let add_node v g =
  if v < 0 then invalid_arg "Graph.add_node: negative id";
  if Nodeset.mem v g.nodes then g
  else { nodes = Nodeset.add v g.nodes; adj = ensure_capacity g v }

let add_nodes s g = Nodeset.fold add_node s g

let mem_node v g = Nodeset.mem v g.nodes

let neighbors v g =
  if v >= 0 && v < Array.length g.adj then g.adj.(v) else Nodeset.empty

let mem_edge u v g = Nodeset.mem v (neighbors u g)

let add_edge u v g =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if mem_edge u v g then g
  else begin
    let g = add_node u (add_node v g) in
    let adj = Array.copy g.adj in
    adj.(u) <- Nodeset.add v adj.(u);
    adj.(v) <- Nodeset.add u adj.(v);
    { g with adj }
  end

let remove_node v g =
  if not (mem_node v g) then g
  else begin
    let adj = Array.copy g.adj in
    Nodeset.iter (fun u -> adj.(u) <- Nodeset.remove v adj.(u)) adj.(v);
    adj.(v) <- Nodeset.empty;
    { nodes = Nodeset.remove v g.nodes; adj }
  end

let remove_edges es g =
  match List.filter (fun (u, v) -> mem_edge u v g) es with
  | [] -> g
  | present ->
    let adj = Array.copy g.adj in
    List.iter
      (fun (u, v) ->
        adj.(u) <- Nodeset.remove v adj.(u);
        adj.(v) <- Nodeset.remove u adj.(v))
      present;
    { g with adj }

(* One adjacency array, sized once and filled in place; the checks and
   their order are [add_edge]'s. *)
let of_nodes_edges ns es =
  let top = match Nodeset.max_elt_opt ns with Some v -> v + 1 | None -> 0 in
  let cap = List.fold_left (fun c (u, v) -> max c (max u v + 1)) top es in
  let adj = Array.make cap Nodeset.empty in
  let nodes =
    List.fold_left
      (fun nodes (u, v) ->
        if u = v then invalid_arg "Graph.add_edge: self-loop";
        if u < 0 || v < 0 then invalid_arg "Graph.add_node: negative id";
        adj.(u) <- Nodeset.add v adj.(u);
        adj.(v) <- Nodeset.add u adj.(v);
        Nodeset.add u (Nodeset.add v nodes))
      ns es
  in
  { nodes; adj }

let of_edges es = of_nodes_edges Nodeset.empty es

let nodes g = g.nodes

let num_nodes g = Nodeset.size g.nodes

let num_edges g =
  Nodeset.fold (fun v acc -> acc + Nodeset.size g.adj.(v)) g.nodes 0 / 2

let closed_neighborhood v g = Nodeset.add v (neighbors v g)

let neighborhood_of_set s g =
  let all =
    Nodeset.fold (fun v acc -> Nodeset.union acc (neighbors v g)) s Nodeset.empty
  in
  Nodeset.diff all s

let degree v g = Nodeset.size (neighbors v g)

let edges g =
  Nodeset.fold
    (fun v acc ->
      Nodeset.fold
        (fun u acc -> if v < u then (v, u) :: acc else acc)
        (neighbors v g) acc)
    g.nodes []
  |> List.sort (fun (a1, b1) (a2, b2) ->
         let c = Int.compare a1 a2 in
         if c <> 0 then c else Int.compare b1 b2)

let equal g h =
  g == h
  || Nodeset.equal g.nodes h.nodes
  && Nodeset.for_all (fun v -> Nodeset.equal (neighbors v g) (neighbors v h)) g.nodes

let induced s g =
  let keep = Nodeset.inter s g.nodes in
  let adj = Array.make (Array.length g.adj) Nodeset.empty in
  Nodeset.iter (fun v -> adj.(v) <- Nodeset.inter g.adj.(v) keep) keep;
  { nodes = keep; adj }

let union g h =
  let cap = max (Array.length g.adj) (Array.length h.adj) in
  let adj = Array.make cap Nodeset.empty in
  let both = Nodeset.union g.nodes h.nodes in
  Nodeset.iter
    (fun v -> adj.(v) <- Nodeset.union (neighbors v g) (neighbors v h))
    both;
  { nodes = both; adj }

(* Union of [gs] restricted to [keep], when given, in one adjacency
   allocation: each node's neighbourhood is accumulated across the graphs
   and cut down to [keep] once at the end. *)
let union_within keep gs =
  let all = List.fold_left (fun acc g -> Nodeset.union acc g.nodes) Nodeset.empty gs in
  let nodes = match keep with Some s -> Nodeset.inter s all | None -> all in
  let cap = match Nodeset.max_elt_opt nodes with Some v -> v + 1 | None -> 0 in
  let adj = Array.make cap Nodeset.empty in
  List.iter
    (fun g ->
      Nodeset.iter
        (fun v -> adj.(v) <- Nodeset.union adj.(v) g.adj.(v))
        (Nodeset.inter g.nodes nodes))
    gs;
  (match keep with
   | Some _ -> Nodeset.iter (fun v -> adj.(v) <- Nodeset.inter adj.(v) nodes) nodes
   | None -> ());
  { nodes; adj }

let union_all gs = union_within None gs

let induced_union s gs = union_within (Some s) gs

let is_subgraph h g =
  Nodeset.subset h.nodes g.nodes
  && Nodeset.for_all (fun v -> Nodeset.subset (neighbors v h) (neighbors v g)) h.nodes

let ball v k g =
  let rec grow ball frontier k =
    if k <= 0 || Nodeset.is_empty frontier then ball
    else
      let next = Nodeset.diff (neighborhood_of_set frontier g) ball in
      grow (Nodeset.union ball next) next (k - 1)
  in
  if not (mem_node v g) then Nodeset.empty
  else grow (Nodeset.singleton v) (Nodeset.singleton v) k

let restrict_to_radius v k g = induced (ball v k g) g

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %d nodes %d edges@,nodes: %a@,edges: %a@]"
    (num_nodes g) (num_edges g) Nodeset.pp g.nodes
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g)

let to_string g = Format.asprintf "%a" pp g
