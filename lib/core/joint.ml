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

(* Per-call node-indexed front cache over the global content-addressed
   memo: the int key avoids re-deriving the view's node set (N[v] or a
   BFS ball) and re-hashing it on every probe of the same search,
   while distinct searches (and service generations) still share one
   restriction per distinct (view nodes, structure) pair through Hc.
   The table is monomorphic in its int key, so a probe compares ints
   directly rather than through the polymorphic compare. *)
module Node_tbl = Hashtbl.Make (Int)

let restriction_cache view z =
  let tbl = Node_tbl.create 16 in
  fun v ->
    match Node_tbl.find_opt tbl v with
    | Some local -> local
    | None ->
      let vn = View.view_nodes view v in
      let local = (vn, Hc.memo_restrict vn z) in
      Node_tbl.add tbl v local;
      local

let joint_structure view z b =
  let local = restriction_cache view z in
  join_list (Nodeset.fold (fun v acc -> snd (local v) :: acc) b [])

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
