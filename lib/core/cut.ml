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

(* Shared driver: enumerate connected B ∋ R with D ∉ B ∪ N(B); candidate
   cut C = N(B); for each maximal M ∈ 𝒵 try the split C₁ = C ∩ M,
   C₂ = C ∖ M and test the model-specific condition on C₂ and B. *)
let search ?budget (inst : Instance.t) ~condition =
  let g = inst.graph in
  let d = inst.dealer and r = inst.receiver in
  let forbidden = Graph.closed_neighborhood d g in
  if Nodeset.mem r forbidden then
    (* R is the dealer's neighbor or the dealer itself: no cut can avoid
       the dealer and separate them *)
    { cut_found = None; complete = true; visited = 0 }
  else begin
    let found = ref None in
    let maximal = Structure.maximal_sets inst.structure in
    let outcome =
      Subset_enum.connected_supersets ?budget g ~seed:r ~forbidden (fun b ->
          let c = Graph.neighborhood_of_set b g in
          let hit =
            List.exists
              (fun m ->
                let c2 = Nodeset.diff c m in
                if condition b c2 then begin
                  found :=
                    Some { b_side = b; cut = c; c1 = Nodeset.inter c m; c2 };
                  true
                end
                else false)
              maximal
          in
          hit)
    in
    { cut_found = !found; complete = outcome.complete;
      visited = outcome.visited }
  end

let zb_condition inst b c2 =
  let zb = Joint.joint_structure inst.Instance.view inst.structure b in
  let vgb = View.joint_nodes inst.view b in
  Structure.mem (Nodeset.inter c2 vgb) zb

let local_condition inst =
  (* per-node local structures are reused across every enumerated
     component: restrict once per node, memoized for the whole search *)
  let tbl = Hashtbl.create 16 in
  let local u =
    match Hashtbl.find_opt tbl u with
    | Some cached -> cached
    | None ->
      let nu = Graph.neighbors u inst.Instance.graph in
      let cached = (nu, Structure.restrict (Nodeset.add u nu) inst.structure) in
      Hashtbl.add tbl u cached;
      cached
  in
  fun b c2 ->
    Nodeset.for_all
      (fun u ->
        let nu, zu = local u in
        Structure.mem (Nodeset.inter nu c2) zu)
      b

(* Specialized driver for RMT-cuts: V(γ(B)) and the members' local
   structures 𝒵^{V(γ(v))} are threaded along the enumeration, and 𝒵_B is
   never built: C₂ ∩ V(γ(B)) ∈ 𝒵_B is decided by one membership test per
   member of B (Joint.mem_joint, exact by the candidate formula and ⊕'s
   associativity).  Each node's view nodes and restriction come from one
   per-search memo, so a view is built once per search, not once per
   branch of the enumeration tree. *)
let find_rmt_cut ?budget (inst : Instance.t) =
  let g = inst.graph in
  let d = inst.dealer and r = inst.receiver in
  let forbidden = Graph.closed_neighborhood d g in
  if Nodeset.mem r forbidden then
    { cut_found = None; complete = true; visited = 0 }
  else begin
    let found = ref None in
    let maximal = Structure.maximal_sets inst.structure in
    let local = Joint.restriction_cache inst.view inst.structure in
    let init =
      let vr, zr = local r in
      (vr, [ zr ])
    in
    let extend (vgb, parts) c =
      let vc, zc = local c in
      (Nodeset.union vgb vc, zc :: parts)
    in
    let outcome =
      Subset_enum.connected_supersets_acc ?budget g ~seed:r ~forbidden ~init
        ~extend (fun b (vgb, parts) ->
          let c = Graph.neighborhood_of_set b g in
          List.exists
            (fun m ->
              let c2 = Nodeset.diff c m in
              if Joint.mem_joint (Nodeset.inter c2 vgb) parts then begin
                found :=
                  Some { b_side = b; cut = c; c1 = Nodeset.inter c m; c2 };
                true
              end
              else false)
            maximal)
    in
    { cut_found = !found; complete = outcome.complete;
      visited = outcome.visited }
  end

let find_rmt_cut_naive ?budget inst =
  search ?budget inst ~condition:(zb_condition inst)

let find_rmt_zpp_cut ?budget inst =
  search ?budget inst ~condition:(local_condition inst)

let split_ok (inst : Instance.t) c1 c2 ~condition =
  let g = inst.graph in
  let c = Nodeset.union c1 c2 in
  Connectivity.is_cut g inst.dealer inst.receiver c
  && Structure.mem c1 inst.structure
  &&
  let b = Connectivity.component_of ~avoiding:c g inst.receiver in
  condition b c2

let is_rmt_cut inst c1 c2 = split_ok inst c1 c2 ~condition:(zb_condition inst)

let is_rmt_zpp_cut inst c1 c2 =
  split_ok inst c1 c2 ~condition:(local_condition inst)

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
