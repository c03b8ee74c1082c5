(** The paper's cut notions and exact deciders for them.

    - {b RMT-cut} (Definition 3) — the tight obstruction for RMT in the
      partial knowledge model: a cut [C = C₁ ∪ C₂] separating [D] from [R]
      with [C₁ ∈ 𝒵] and [C₂ ∩ V(γ(B)) ∈ 𝒵_B], where [B] is the connected
      component of [R] after removing [C].  RMT is solvable iff no RMT-cut
      exists (Theorems 3 and 5).
    - {b RMT 𝒵-pp cut} (Definition 7) — the ad hoc specialization: the
      second condition becomes [∀u ∈ B, N(u) ∩ C₂ ∈ 𝒵_u].  Z-CPA solves
      RMT iff no such cut exists (Theorems 7 and 8).

    Every cut notion here, and Reliable Broadcast's Definition 10 in
    {!Broadcast}, is decided by one boundary enumeration,
    {!boundary_search}: it suffices to consider cuts of the form
    [C = N(B)] for connected [B] containing a seed with [D ∉ B ∪ N(B)]
    (any other cut dominates one of these — conditions on [C₂] are
    monotone and [C₁] can absorb arbitrary extra nodes only when they fit
    in an admissible set anyway), and for the [C₁]/[C₂] split it suffices
    to try [C₁ = C ∩ M] for each maximal [M ∈ 𝒵].  The notions differ
    only in the view the [𝒵_B] test reads: the instance's own for
    RMT-cuts, {!View.ad_hoc} for 𝒵-pp cuts.  Enumeration is exponential
    in the worst case: every verdict carries a completeness flag tied to
    an explicit budget. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
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

val boundary_search :
  ?budget:int ->
  Graph.t ->
  Structure.t ->
  view:View.t ->
  local:(int -> Nodeset.t) ->
  seed:int ->
  forbidden:Nodeset.t ->
  verdict
(** [boundary_search g 𝒵 ~view ~local ~seed ~forbidden] enumerates connected
    [B ∋ seed] in [nodes g − forbidden] ({!Subset_enum.connected_supersets_acc}),
    and for each, with [C = N(B)] as the enumeration hands it down (kept
    incrementally, never refolded over [B]) and each maximal [M ∈ 𝒵] in
    turn, accepts
    the split [C₁ = C ∩ M], [C₂ = C ∖ M] when [C₂ ∩ V(γ(B)) ∈ 𝒵_B].  [𝒵_B]
    is never built, nor is any member's restriction [𝒵^{V(γ(v))}]:
    [V(γ(B))] and the members' view nodes [V(γ(v))] are threaded along
    the enumeration and the test is {!Joint.mem_restricted} against [𝒵]
    itself, so a search restricts no structure.  [local] must
    be a {!Joint.view_nodes_cache} of [view]; callers that search from
    several seeds share one.  The
    first accepted split is the witness; [budget] caps the enumeration
    steps ({!Subset_enum.connected_supersets_acc}'s [visited]).  A seed
    inside [forbidden] gives a complete, empty verdict.

    Exact prune: a node is {e incorruptible} when it lies in no maximal
    set of [𝒵].  When {!View.covers_stars} holds (every [V(γ(v)) ⊇ N[v]]:
    full, ad hoc and radius [≥ 1] views always, radius-0 and custom views
    only when their node sets say so), no witness has an incorruptible
    [x] on its boundary: [x] is in no [M], so [x ∈ C₂]; [x ∈ N[u] ⊆
    V(γ(u))] for a neighbour [u ∈ B], and no member of [𝒵^{V(γ(u))}]
    contains [x], so [C₂ ∩ V(γ(B)) ∉ 𝒵_B].  Those nodes are passed to the
    enumeration as [pinned], which forces them into [B] or abandons the
    branch.  A verdict means what the unpruned one means, in fewer
    steps: a search may now complete within a budget the unpruned one
    exhausts, and the first witness found may be a different one.  Under a radius-0 or custom
    view an incorruptible boundary node may lie outside [V(γ(B))], where
    it constrains nothing, so the prune is not applied there. *)

val find_rmt_cut : ?budget:int -> Instance.t -> verdict
(** RMT-cut existence in the partial knowledge model (Definition 3):
    {!boundary_search} from [R], avoiding [N[D]], under the instance's
    view.  Each node's view nodes are derived once per search, and no
    structure is restricted. *)

val find_rmt_cut_naive : ?budget:int -> Instance.t -> verdict
(** Same verdict as {!find_rmt_cut}, computed independently: joins
    [𝒵_B] by [⊕] and recomputes [N(B)] and [V(γ(B))] from scratch for
    every enumerated component.  The oracle the fast decider is checked against
    and the ablation baseline for experiment A1; prefer {!find_rmt_cut}. *)

val find_rmt_zpp_cut : ?budget:int -> Instance.t -> verdict
(** RMT 𝒵-pp cut existence (Definition 7): the RMT-cut search under
    [View.ad_hoc inst.graph], whatever [inst.view] is.  With [γ(u)] the
    star of [u], {!Joint.mem_restricted}'s test for member [u] reads
    [N(u) ∩ C₂ ∈ 𝒵_u] (as [u ∈ B] and [B ∩ C₂ = ∅]), which is the
    definition. *)

val update :
  ?budget:int ->
  prev:verdict ->
  Instance.t ->
  verdict * [ `Witness_reused | `Researched ]
(** [update ~prev inst] re-decides RMT-cut existence after [inst] changed,
    reusing [prev] (the verdict for the pre-delta instance) when possible.
    If [prev]'s witness still satisfies Definition 3 on the new instance,
    the verdict is rebuilt around it in one check ([`Witness_reused],
    [visited = 0]).  The check is {!boundary_search}'s own test, with no
    ⊕ join: [c1 ∪ c2] separates [D] from [R]
    ({!Connectivity.is_cut}), [c1 ∈ 𝒵], and
    [Joint.mem_restricted 𝒵 views (c2 ∩ V(γ(B)))] where [B] is the
    receiver's component of [G − (c1 ∪ c2)], computed once, and
    [V(γ(B))] and [views] are its members' view nodes; no restriction is
    built.  It decides exactly what {!is_rmt_cut}
    decides (test/core/test_incremental.ml pins the two on arbitrary
    splits).  The reused witness's [b_side] is that [B] and its [cut] is
    [c1 ∪ c2], which may strictly contain [N(b_side)].  Otherwise a full
    {!find_rmt_cut} runs ([`Researched]), at the cost of a first search:
    no memo is carried across calls.  Either way the verdict's meaning is
    identical to a from-scratch search: solvability conclusions agree. *)

val is_rmt_cut : Instance.t -> Nodeset.t -> Nodeset.t -> bool
(** [is_rmt_cut inst c1 c2]: checks Definition 3 directly for a concrete
    split — [c1 ∪ c2] separates [D] from [R], [c1 ∈ 𝒵], and
    [c2 ∩ V(γ(B)) ∈ 𝒵_B] for [B] the receiver-side component, with [𝒵_B]
    built by the ⊕ join ({!Joint.joint_structure}, restricting each
    member's structure afresh per call) and [V(γ(B))] as the union of
    the members' view graphs — the test {!find_rmt_cut_naive} runs per
    component.  The independent oracle: tests and benchmarks check
    witnesses with it; the deciders and {!update} do not call it. *)

val is_rmt_zpp_cut : Instance.t -> Nodeset.t -> Nodeset.t -> bool
(** Same for Definition 7, literally: [∀u ∈ B, N(u) ∩ C₂ ∈ 𝒵^{N[u]}],
    restricting afresh per call.  It shares no code with
    {!find_rmt_zpp_cut}'s membership test and is its reference. *)

val pp_witness : Format.formatter -> witness -> unit
