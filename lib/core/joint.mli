(** The joint view operation [⊕] on adversary structures (Definition 2).

    [𝓔^A ⊕ 𝓕^B = { Z₁ ∪ Z₂ | Z₁ ∈ 𝓔^A, Z₂ ∈ 𝓕^B, Z₁ ∩ B = Z₂ ∩ A }]

    combines two players' partial knowledge of the adversary into the
    {e maximal} adversary structure consistent with both (Theorem 1): any
    structure whose restrictions to [A] and [B] match the operands is
    contained in the join.  The operation is commutative, associative and
    idempotent (Theorems 11, 13, 14), so the joint structure of a node set
    [𝒵_B = ⊕_{v ∈ B} 𝒵^{V(γ(v))}] is well defined regardless of order.

    The implementation works on antichains: for maximal [M₁ ∈ 𝓔],
    [M₂ ∈ 𝓕] the unique maximal compatible union is
    [(M₁∖B) ∪ (M₂∖A) ∪ (M₁ ∩ M₂)], and every compatible union is contained
    in one of these candidates, so the join costs
    [O(|𝓔|·|𝓕|)] set operations plus an antichain reduction.  Candidates
    stream through an incremental antichain ({!Structure.Builder}), so
    already-covered candidates are discarded as they are generated rather
    than being accumulated for a final quadratic reduction. *)

open Rmt_base
open Rmt_adversary
open Rmt_knowledge

val join : Structure.t -> Structure.t -> Structure.t
(** [join e f] is [𝓔^A ⊕ 𝓕^B] where [A], [B] are the operands' ground
    sets; the result's ground set is [A ∪ B]. *)

val join_list : Structure.t list -> Structure.t
(** Folds {!join}; the empty list yields the identity [{∅}^∅]. *)

val identity : Structure.t
(** [{∅}] over the empty ground set: [join identity s] is [s]. *)

val restriction_cache : View.t -> Structure.t -> int -> Nodeset.t * Structure.t
(** [restriction_cache γ 𝒵] is a memoized [v ↦ (V(γ(v)), 𝒵^{V(γ(v))})]:
    the first call per node derives the view's node set and restricts
    [𝒵] to it, later calls return the cached pair.  Callers:
    - every cut decider ({!Cut.boundary_search}, behind the RMT-cut,
      RMT 𝒵-pp cut and Broadcast deciders) threads one cache through its
      whole connected-subset enumeration, so each node's view nodes are
      derived ([N[v]] for an ad hoc view, a BFS ball for a radius view)
      and its structure restricted once per search instead of once per
      enumerated component; [Broadcast.find_zpp_cut] and
      [Broadcast.blocked_nodes] share one ad hoc cache across all their
      searches;
    - [Cut.update]'s witness re-check reads the receiver component's
      members from one cache;
    - {!joint_structure}, the join-based oracle.
    The pairs feed [V(γ(B))] and the [parts] of {!mem_joint}.
    The per-call table is only a node-indexed front: the restriction
    itself comes from the global content-addressed memo
    ({!Hc.memo_restrict}), so repeated searches over the same instance —
    the streaming service in particular — share one computation per
    distinct (view nodes, structure) pair. *)

val joint_structure : View.t -> Structure.t -> Nodeset.t -> Structure.t
(** [joint_structure γ 𝒵 B] is [𝒵_B = ⊕_{v ∈ B} 𝒵^{V(γ(v))}] — what the
    members of [B], pooling their initial knowledge, consider the maximal
    possible adversary structure (Section 2).  By Corollary 2 it always
    contains [𝒵^{V(γ(B))}]. *)

val mem_joint : Nodeset.t -> Structure.t list -> bool
(** [mem_joint z parts] is [Structure.mem z (join_list parts)], decided
    locally without building the join:
    [z ⊆ ⋃ᵢ ground(pᵢ)] and [z ∩ ground(pᵢ) ∈ pᵢ] for every [i].  Costs
    [|parts|] membership tests instead of a chain of joins.

    Exactness, from the candidate formula: for [𝓔] over [A], [𝓕] over
    [B] and [z ⊆ A ∪ B], [z ⊆ (M₁∖B) ∪ (M₂∖A) ∪ (M₁∩M₂)] iff
    [z ∩ A ⊆ M₁] and [z ∩ B ⊆ M₂] (split [z] over [A∖B], [B∖A], [A∩B]),
    so [z ∈ 𝓔 ⊕ 𝓕] iff [z ∩ A ∈ 𝓔] and [z ∩ B ∈ 𝓕].  Associativity
    carries this over a list ([(z ∩ U) ∩ A = z ∩ A] for [A ⊆ U]); the
    empty list is the identity [{∅}^∅], where [z ∈] iff [z = ∅]. *)
