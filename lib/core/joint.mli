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

val view_nodes_cache : View.t -> int -> Nodeset.t
(** [view_nodes_cache γ] is a memoized [v ↦ V(γ(v))] over a node-indexed
    array: the first call per node derives the view's node set ([N[v]]
    for an ad hoc view, a BFS ball for a radius view), later calls return
    it.  Every cut decider ({!Cut.boundary_search}, behind the RMT-cut,
    RMT 𝒵-pp cut and Broadcast deciders) threads one cache through its
    whole connected-subset enumeration, so each node's view nodes are
    derived once per search instead of once per enumerated component;
    [Broadcast.find_zpp_cut] and [Broadcast.blocked_nodes] share one ad
    hoc cache across all their searches.  The sets feed [V(γ(B))] and the
    [views] of {!mem_restricted}, so the deciders restrict no
    structure.  The cache lives in the closure it returns: nothing is
    shared across searches. *)

val joint_structure : View.t -> Structure.t -> Nodeset.t -> Structure.t
(** [joint_structure γ 𝒵 B] is [𝒵_B = ⊕_{v ∈ B} 𝒵^{V(γ(v))}] — what the
    members of [B], pooling their initial knowledge, consider the maximal
    possible adversary structure (Section 2).  By Corollary 2 it always
    contains [𝒵^{V(γ(B))}].  Each part is restricted afresh on every
    call ({!View.local_structure}); there is no memo.  This is the ⊕
    oracle behind [Cut.find_rmt_cut_naive] and [Cut.is_rmt_cut], the
    independent reference the deciders are checked against. *)

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

val mem_restricted : Structure.t -> Nodeset.t list -> Nodeset.t -> bool
(** [mem_restricted 𝒵 views z] is
    [mem_joint z (List.map (fun v -> Structure.restrict v 𝒵) views)] —
    [z ∈ ⊕_{V ∈ views} 𝒵^V] — decided against [𝒵] itself, with no
    restriction built: it holds iff [z ⊆ ground(𝒵) ∩ ⋃ views] and
    [Structure.mem (z ∩ V) 𝒵] for every [V] in [views].  This is
    Definition 3's [C₂ ∩ V(γ(B)) ∈ 𝒵_B] when every member's local
    structure is a restriction of the one known [𝒵], as in every cut
    decider.

    Exactness, from {!mem_joint}'s two tests on the parts
    [pᵥ = 𝒵^V]:
    - a restriction's ground is [ground(𝒵) ∩ V], so the coverage test
      [z ⊆ ⋃ ground(pᵥ)] is [z ⊆ ground(𝒵) ∩ ⋃ views];
    - the maximal sets of [𝒵^V] are the maximal ones among [M ∩ V] for
      [M] maximal in [𝒵], and for [X ⊆ V], [X ⊆ M ∩ V] iff [X ⊆ M]; so
      once [z ⊆ ground(𝒵)], [z ∩ ground(pᵥ) = z ∩ V ∈ 𝒵^V] iff
      [z ∩ V ∈ 𝒵];
    - the boundary families agree: an empty family restricts to an
      empty family (every test fails on both sides, unless [views] is
      empty), and [{∅}] restricts to [{∅}] (the test holds exactly for
      [z = ∅] on both sides);
    - an empty [views] is the identity [{∅}^∅] of {!mem_joint}: both
      hold iff [z = ∅].

    The ground half of the coverage test need not be run: every maximal
    set lies within [ground(𝒵)], so when [z ⊆ ⋃ views] and every
    [z ∩ V ∈ 𝒵], each [z ∩ V] is within [ground(𝒵)] and so is [z].  The
    implementation tests [z ∩ V ∈ 𝒵] for each [V], then [z ⊆ ⋃ views]. *)
