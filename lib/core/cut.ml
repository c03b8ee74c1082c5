open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

type witness = {
  b_side : Nodeset.t;
  cut : Nodeset.t;
  c1 : Nodeset.t;
  c2 : Nodeset.t;
}

type verdict = {
  cut_found : witness option;
  complete : bool;
  visited : int;
}

let exists_certainly v = v.cut_found <> None

let absent_certainly v = v.cut_found = None && v.complete

(* C₁ = C ∩ M, C₂ = C ∖ M for the first maximal M whose C₂ passes [ok] *)
let first_split maximal b c ok =
  List.find_map
    (fun m ->
      let c2 = Nodeset.diff c m in
      if ok c2 then Some { b_side = b; cut = c; c1 = Nodeset.inter c m; c2 }
      else None)
    maximal

(* B's joint knowledge, member by member: V(γ(B)) and the members' view
   nodes, read from a Joint.view_nodes_cache.  [joint_ok] is Definition
   3's C₂ ∩ V(γ(B)) ∈ 𝒵_B, building neither 𝒵_B nor any 𝒵^{V(γ(v))}: one
   test of 𝒵 itself per member of B (Joint.mem_restricted). *)
let add_member local (vgb, views) v =
  let vv = local v in
  (Nodeset.union vgb vv, vv :: views)

let joint_ok z (vgb, vs) c2 = Joint.mem_restricted z vs (Nodeset.inter c2 vgb)

(* The one boundary search behind every cut notion: enumerate connected
   B ∋ seed avoiding [forbidden]; candidate cut C = N(B), handed down by
   the enumeration; for each maximal M ∈ 𝒵 try the split C₁ = C ∩ M,
   C₂ = C ∖ M and accept when [joint_ok].  B's joint knowledge is threaded
   along the enumeration.  [local] is a Joint.view_nodes_cache, so each
   node's view nodes are derived once per cache, not once per branch of
   the enumeration tree.

   Incorruptible nodes (in no maximal M) are pinned off the boundary when
   the view covers every star: such an x ∈ N(B) lands in C₂ under every
   split and in V(γ(u)) for its neighbour u ∈ B, where no member of
   𝒵^{V(γ(u))} contains it, so [joint_ok] fails for B and for every
   superset keeping x on its boundary. *)
let boundary_search ?budget g z ~view ~local ~seed ~forbidden =
  if Nodeset.mem seed forbidden then
    { cut_found = None; complete = true; visited = 0 }
  else begin
    let found = ref None in
    let maximal = Structure.maximal_sets z in
    let pinned =
      if View.covers_stars view then
        List.fold_left Nodeset.diff (Graph.nodes g) maximal
      else Nodeset.empty
    in
    let outcome =
      Subset_enum.connected_supersets_acc ?budget ~pinned g ~seed ~forbidden
        ~init:(add_member local (Nodeset.empty, []) seed)
        ~extend:(add_member local) (fun b nb known ->
          found := first_split maximal b nb (joint_ok z known);
          Option.is_some !found)
    in
    { cut_found = !found; complete = outcome.complete;
      visited = outcome.visited }
  end

(* RMT-cuts under [view]: B is the receiver's component, and B ∪ N(B)
   avoids the dealer's closed neighbourhood.  When R lies in it (R is the
   dealer or its neighbour) no cut separates them: the search stops at
   once. *)
let receiver_search ?budget (inst : Instance.t) view =
  boundary_search ?budget inst.graph inst.structure ~view
    ~local:(Joint.view_nodes_cache view)
    ~seed:inst.receiver
    ~forbidden:(Graph.closed_neighborhood inst.dealer inst.graph)

let find_rmt_cut ?budget (inst : Instance.t) =
  receiver_search ?budget inst inst.view

(* Definition 7 is Definition 3 with γ(u) the star of u: under the ad hoc
   view mem_restricted's per-member test (C₂ ∩ V(γ(B))) ∩ N[u] ∈ 𝒵 is
   N(u) ∩ C₂ ∈ 𝒵_u (u ∈ B and B ∩ C₂ = ∅), and its coverage test holds
   trivially. *)
let find_rmt_zpp_cut ?budget (inst : Instance.t) =
  receiver_search ?budget inst (View.ad_hoc inst.graph)

let zb_condition inst b c2 =
  let zb = Joint.joint_structure inst.Instance.view inst.structure b in
  let vgb = View.joint_nodes inst.view b in
  Structure.mem (Nodeset.inter c2 vgb) zb

(* The independent oracle: the same candidate cuts, but N(B) and V(γ(B))
   recomputed from scratch and 𝒵_B joined by ⊕ for every enumerated
   component. *)
let find_rmt_cut_naive ?budget (inst : Instance.t) =
  let g = inst.graph in
  let forbidden = Graph.closed_neighborhood inst.dealer g in
  if Nodeset.mem inst.receiver forbidden then
    { cut_found = None; complete = true; visited = 0 }
  else begin
    let found = ref None in
    let maximal = Structure.maximal_sets inst.structure in
    let outcome =
      Subset_enum.connected_supersets ?budget g ~seed:inst.receiver
        ~forbidden (fun b _ ->
          found :=
            first_split maximal b (Graph.neighborhood_of_set b g)
              (zb_condition inst b);
          Option.is_some !found)
    in
    { cut_found = !found; complete = outcome.complete;
      visited = outcome.visited }
  end

let split_ok (inst : Instance.t) c1 c2 ~condition =
  let g = inst.graph in
  let c = Nodeset.union c1 c2 in
  Connectivity.is_cut g inst.dealer inst.receiver c
  && Structure.mem c1 inst.structure
  &&
  let b = Connectivity.component_of ~avoiding:c g inst.receiver in
  condition b c2

let is_rmt_cut inst c1 c2 = split_ok inst c1 c2 ~condition:(zb_condition inst)

let is_rmt_zpp_cut (inst : Instance.t) c1 c2 =
  split_ok inst c1 c2 ~condition:(fun b c2 ->
      Nodeset.for_all
        (fun u ->
          let nu = Graph.neighbors u inst.graph in
          Structure.mem (Nodeset.inter nu c2)
            (Structure.restrict (Nodeset.add u nu) inst.structure))
        b)

(* Incremental re-decision after an instance delta.  Two regimes:

   - the previous witness still satisfies Definition 3 on the new
     instance: answer in one check, no enumeration.  [recheck] is the
     search's own test (separation, C₁ ∈ 𝒵, [joint_ok] over the
     receiver's new component B), so no join or restriction is built;
     [is_rmt_cut] is the oracle it is tested against.  The witness is
     re-rooted on B, and its [cut] is [c1 ∪ c2], which can be a superset
     of N(B) when the delta moved nodes of the old cut away from the
     component boundary; Definition 3 accepts any separating C₁ ∪ C₂, so
     the verdict is still exact.
   - otherwise a full re-search.  No structural monotonicity is assumed
     (an added edge can both create and destroy RMT-cuts depending on the
     view function); the re-search costs what a first search costs. *)
let recheck (inst : Instance.t) w =
  let g = inst.graph in
  let c = Nodeset.union w.c1 w.c2 in
  if
    Connectivity.is_cut g inst.dealer inst.receiver c
    && Structure.mem w.c1 inst.structure
  then
    let b = Connectivity.component_of ~avoiding:c g inst.receiver in
    let local = View.view_nodes inst.view in
    let known =
      Nodeset.fold (fun v k -> add_member local k v) b (Nodeset.empty, [])
    in
    if joint_ok inst.structure known w.c2 then
      Some { w with b_side = b; cut = c }
    else None
  else None

let update ?budget ~prev (inst : Instance.t) =
  match Option.bind prev.cut_found (recheck inst) with
  | Some w ->
    ({ cut_found = Some w; complete = true; visited = 0 }, `Witness_reused)
  | None -> (find_rmt_cut ?budget inst, `Researched)

let pp_witness ppf w =
  Format.fprintf ppf "@[<hov 2>cut %a = C1 %a ∪ C2 %a shielding B %a@]"
    Nodeset.pp w.cut Nodeset.pp w.c1 Nodeset.pp w.c2 Nodeset.pp w.b_side
