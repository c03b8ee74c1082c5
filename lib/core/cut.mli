(** The paper's cut notions and exact deciders for them.

    - {b RMT-cut} (Definition 3) — the tight obstruction for RMT in the
      partial knowledge model: a cut [C = C₁ ∪ C₂] separating [D] from [R]
      with [C₁ ∈ 𝒵] and [C₂ ∩ V(γ(B)) ∈ 𝒵_B], where [B] is the connected
      component of [R] after removing [C].  RMT is solvable iff no RMT-cut
      exists (Theorems 3 and 5).
    - {b RMT 𝒵-pp cut} (Definition 7) — the ad hoc specialization: the
      second condition becomes [∀u ∈ B, N(u) ∩ C₂ ∈ 𝒵_u].  Z-CPA solves
      RMT iff no such cut exists (Theorems 7 and 8).

    Both deciders enumerate receiver-side components: it suffices to
    consider cuts of the form [C = N(B)] for connected [B ∋ R] with
    [D ∉ B ∪ N(B)] (any other cut dominates one of these — conditions on
    [C₂] are monotone and [C₁] can absorb arbitrary extra nodes only when
    they fit in an admissible set anyway), and for the [C₁]/[C₂] split it
    suffices to try [C₁ = C ∩ M] for each maximal [M ∈ 𝒵].  Enumeration is
    exponential in the worst case: every verdict carries a completeness
    flag tied to an explicit budget. *)

open Rmt_base
open Rmt_knowledge

type witness = {
  b_side : Nodeset.t;  (** the receiver-side connected component [B] *)
  cut : Nodeset.t;  (** [C = N(B)] *)
  c1 : Nodeset.t;  (** the admissible part, [∈ 𝒵] *)
  c2 : Nodeset.t;  (** the locally-plausible part *)
}

type verdict = {
  cut_found : witness option;
  complete : bool;
      (** [false]: the search budget was exhausted before the space was
          covered, so [cut_found = None] means "unknown" *)
  visited : int;
      (** number of connected components the enumeration actually
          examined — on budget-capped sweeps this is how much of the
          space was covered before the verdict *)
}

val exists_certainly : verdict -> bool

val absent_certainly : verdict -> bool

val find_rmt_cut : ?budget:int -> Instance.t -> verdict
(** RMT-cut existence in the partial knowledge model (Definition 3).
    [𝒵_B] is never built: [V(γ(B))] and the members' local structures
    [𝒵^{V(γ(v))}] are threaded through the enumeration, and
    [C₂ ∩ V(γ(B)) ∈ 𝒵_B] is decided by one membership test per member of
    [B] ({!Joint.mem_joint}).  Each node's view nodes and restriction are
    computed once per search ({!Joint.restriction_cache}). *)

val find_rmt_cut_naive : ?budget:int -> Instance.t -> verdict
(** Same verdict as {!find_rmt_cut}, computed independently: joins
    [𝒵_B] by [⊕] and recomputes [V(γ(B))] from scratch for every
    enumerated component.  The oracle the fast decider is checked against
    and the ablation baseline for experiment A1; prefer {!find_rmt_cut}. *)

val find_rmt_zpp_cut : ?budget:int -> Instance.t -> verdict
(** RMT 𝒵-pp cut existence (Definition 7).  Local structures [𝒵_u] are
    taken from the instance's view function, which in the ad hoc model is
    the star of [u]; the decider itself only consults [N(u)]-restrictions,
    matching the definition. *)

val update :
  ?budget:int ->
  prev:verdict ->
  Instance.t ->
  verdict * [ `Witness_reused | `Researched ]
(** [update ~prev inst] re-decides RMT-cut existence after [inst] changed,
    reusing [prev] (the verdict for the pre-delta instance) when possible.
    If [prev]'s witness still satisfies Definition 3 on the new instance —
    checked exactly via {!is_rmt_cut} — the verdict is rebuilt around it
    in one check ([`Witness_reused], [visited = 0]; the reused witness's
    [cut] field is [c1 ∪ c2], which may strictly contain [N(b_side)]).
    Otherwise a full {!find_rmt_cut} runs ([`Researched]), itself
    amortized across calls by the global restriction memo.  Either way
    the verdict's meaning is identical to a from-scratch search:
    solvability conclusions agree (test/core/test_incremental.ml). *)

val is_rmt_cut : Instance.t -> Nodeset.t -> Nodeset.t -> bool
(** [is_rmt_cut inst c1 c2]: checks Definition 3 directly for a concrete
    split — [c1 ∪ c2] separates [D] from [R], [c1 ∈ 𝒵], and
    [c2 ∩ V(γ(B)) ∈ 𝒵_B] for [B] the receiver-side component. *)

val is_rmt_zpp_cut : Instance.t -> Nodeset.t -> Nodeset.t -> bool
(** Same for Definition 7. *)

val pp_witness : Format.formatter -> witness -> unit
