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

(* The one boundary search behind every cut notion: enumerate connected
   B ∋ seed avoiding [forbidden]; candidate cut C = N(B); for each maximal
   M ∈ 𝒵 try the split C₁ = C ∩ M, C₂ = C ∖ M and accept when
   C₂ ∩ V(γ(B)) ∈ 𝒵_B.  V(γ(B)) and the members' local structures
   𝒵^{V(γ(v))} are threaded along the enumeration, and 𝒵_B is never built:
   membership is one test per member of B (Joint.mem_joint, exact by the
   candidate formula and ⊕'s associativity).  [local] is a
   Joint.restriction_cache, so each node's view and restriction are
   computed once per cache, not once per branch of the enumeration tree. *)
let boundary_search ?budget g z ~local ~seed ~forbidden =
  if Nodeset.mem seed forbidden then
    { cut_found = None; complete = true; visited = 0 }
  else begin
    let found = ref None in
    let maximal = Structure.maximal_sets z in
    let init =
      let vs, zs = local seed in
      (vs, [ zs ])
    in
    let extend (vgb, parts) c =
      let vc, zc = local c in
      (Nodeset.union vgb vc, zc :: parts)
    in
    let outcome =
      Subset_enum.connected_supersets_acc ?budget g ~seed ~forbidden ~init
        ~extend (fun b (vgb, parts) ->
          found :=
            first_split maximal b (Graph.neighborhood_of_set b g) (fun c2 ->
                Joint.mem_joint (Nodeset.inter c2 vgb) parts);
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
  boundary_search ?budget inst.graph inst.structure
    ~local:(Joint.restriction_cache view inst.structure)
    ~seed:inst.receiver
    ~forbidden:(Graph.closed_neighborhood inst.dealer inst.graph)

let find_rmt_cut ?budget (inst : Instance.t) =
  receiver_search ?budget inst inst.view

(* Definition 7 is Definition 3 with γ(u) the star of u: under the ad hoc
   view mem_joint's per-member test (C₂ ∩ V(γ(B))) ∩ N[u] ∈ 𝒵^{N[u]} is
   N(u) ∩ C₂ ∈ 𝒵_u (u ∈ B and B ∩ C₂ = ∅), and its coverage test holds
   trivially. *)
let find_rmt_zpp_cut ?budget (inst : Instance.t) =
  receiver_search ?budget inst (View.ad_hoc inst.graph)

let zb_condition inst b c2 =
  let zb = Joint.joint_structure inst.Instance.view inst.structure b in
  let vgb = View.joint_nodes inst.view b in
  Structure.mem (Nodeset.inter c2 vgb) zb

(* The independent oracle: the same candidate cuts, but 𝒵_B joined by ⊕
   and V(γ(B)) recomputed from scratch for every enumerated component. *)
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
        ~forbidden (fun b ->
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
     instance (checked directly by [is_rmt_cut], which re-derives 𝒵_B for
     the new receiver-side component): answer in one membership-style
     check, no enumeration.  The witness is re-rooted — its B side and
     component may have changed — and its [cut] is [c1 ∪ c2], which can
     be a superset of N(B) when the delta moved nodes of the old cut away
     from the component boundary; [is_rmt_cut] accepts any separating
     C₁ ∪ C₂, so the verdict is still exact.
   - otherwise a full re-search.  No structural monotonicity is assumed
     (an added edge can both create and destroy RMT-cuts depending on the
     view function), but the re-search still amortizes through the global
     restriction memo (Hc), so repeated searches over a churning instance
     pay far less than cold ones. *)
let update ?budget ~prev (inst : Instance.t) =
  match prev.cut_found with
  | Some w when is_rmt_cut inst w.c1 w.c2 ->
    let c = Nodeset.union w.c1 w.c2 in
    let b = Connectivity.component_of ~avoiding:c inst.graph inst.receiver in
    ( { cut_found = Some { b_side = b; cut = c; c1 = w.c1; c2 = w.c2 };
        complete = true;
        visited = 0;
      },
      `Witness_reused )
  | _ -> (find_rmt_cut ?budget inst, `Researched)

let pp_witness ppf w =
  Format.fprintf ppf "@[<hov 2>cut %a = C1 %a ∪ C2 %a shielding B %a@]"
    Nodeset.pp w.cut Nodeset.pp w.c1 Nodeset.pp w.c2 Nodeset.pp w.b_side
