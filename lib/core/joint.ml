open Rmt_base
open Rmt_adversary
open Rmt_knowledge

(* For maximal M1 ⊆ A and M2 ⊆ B, the maximal union of a compatible pair
   (Z1 ⊆ M1, Z2 ⊆ M2, Z1 ∩ B = Z2 ∩ A) is reached by agreeing on the
   largest possible overlap S = M1 ∩ M2 (all of which lies in A ∩ B) and
   keeping everything outside the other's ground set:
     candidate(M1, M2) = (M1 ∖ B) ∪ (M2 ∖ A) ∪ (M1 ∩ M2).
   Any compatible pair's union is contained in the candidate of the
   maximal sets dominating it, and each candidate is itself realized by a
   compatible pair, so the candidates generate exactly 𝓔 ⊕ 𝓕.

   Candidates are funnelled through an incremental antichain
   (Structure.Builder): a candidate already covered by an earlier one is
   dropped on the spot, so the |𝓔|·|𝓕| product never materializes in full
   before the reduction — on overlapping views most candidates collapse
   early and the working set stays near the final antichain size. *)
let join e f =
  let a = Structure.ground e and b = Structure.ground f in
  let maximal_f = Structure.maximal_sets f in
  let builder = Structure.Builder.create () in
  List.iter
    (fun m1 ->
      let m1_private = Nodeset.diff m1 b in
      List.iter
        (fun m2 ->
          Structure.Builder.add builder
            (Nodeset.union
               (Nodeset.union m1_private (Nodeset.diff m2 a))
               (Nodeset.inter m1 m2)))
        maximal_f)
    (Structure.maximal_sets e);
  Structure.Builder.to_structure ~ground:(Nodeset.union a b) builder

let identity = Structure.trivial ~ground:Nodeset.empty

let join_list = function
  | [] -> identity
  | s :: rest -> List.fold_left join s rest

(* V(γ(v)) ∋ v for every node, so an empty slot is one not derived yet;
   ids outside the graph have an empty view and are re-derived. *)
let view_nodes_cache view =
  let last = Nodeset.max_elt_opt (Rmt_graph.Graph.nodes (View.graph view)) in
  let tbl = Array.make (1 + Option.value last ~default:(-1)) Nodeset.empty in
  fun v ->
    if v < 0 || v >= Array.length tbl then View.view_nodes view v
    else begin
      if Nodeset.is_empty tbl.(v) then tbl.(v) <- View.view_nodes view v;
      tbl.(v)
    end

let joint_structure view z b =
  join_list
    (Nodeset.fold
       (fun v acc -> View.local_structure view z v :: acc)
       b [])

(* z ∈ ⊕ᵢ pᵢ iff z ⊆ ⋃ ground(pᵢ) and every z ∩ ground(pᵢ) ∈ pᵢ (proof
   in joint.mli).  The membership tests run first: they fail far more
   often than the coverage test and allocate only the intersection. *)
let mem_joint z parts =
  List.for_all
    (fun p -> Structure.mem (Nodeset.inter z (Structure.ground p)) p)
    parts
  && Nodeset.for_all
       (fun x -> List.exists (fun p -> Nodeset.mem x (Structure.ground p)) parts)
       z

(* mem_joint over the restrictions of s to views, none built (proof in
   joint.mli); the membership tests imply z ⊆ ground(s). *)
let mem_restricted s views z =
  List.for_all (fun v -> Structure.mem (Nodeset.inter z v) s) views
  && Nodeset.subset z (List.fold_left Nodeset.union Nodeset.empty views)
