(** Reliable Broadcast with an honest dealer — the problem RMT descends
    from (Section 4, [13]).

    In Broadcast every honest player must decide on the dealer's value,
    not just a designated receiver.  The tight ad hoc obstruction is the
    original 𝒵-pp cut (Definition 10): a cut [C = C₁ ∪ C₂] splitting the
    rest into [A ∋ D] and [B ≠ ∅] with [C₁ ∈ 𝒵] and
    [∀u ∈ B, 𝒩(u) ∩ C₂ ∈ 𝒵_u].  𝒵-CPA achieves Broadcast exactly when no
    such cut exists, and the RMT adaptation in {!Zcpa} is the same
    protocol with only the output rule localized — so this module reuses
    it and merely changes the success criterion and the cut decider
    (the receiver side [B] now ranges over {e every} component, not just
    the receiver's).  That decider is {!Cut.boundary_search} under the
    ad hoc view, run once per possible seed of [B]. *)

open Rmt_base
open Rmt_knowledge

val find_zpp_cut : Instance.t -> Cut.verdict
(** Definition 10's cut: {!Cut.boundary_search} under
    [View.ad_hoc inst.graph] from each node outside [N[D]] in increasing
    order, with [B] anchored at its minimum element (the seed's search
    forbids every smaller node), one view-nodes cache shared by all
    seeds, stopping at the first witness.  [visited] sums the searches
    run; [complete] is [false] if any of them ran out of
    {!Cut.boundary_search}'s default budget (each gets its own).  The
    instance's receiver and view are irrelevant here; only the graph,
    structure and dealer matter. *)

val solvable : Instance.t -> Solvability.feasibility
(** Broadcast feasibility in the ad hoc model (tight, per [13]):
    [Solvability.of_verdict (find_zpp_cut inst)]. *)

val blocked_nodes : Instance.t -> Nodeset.t
(** The union of all receiver-side components over the 𝒵-pp cuts found —
    players that some admissible adversary can starve.  Empty iff
    {!solvable} when every search completes within its budget: each
    unmarked node gets its own budgeted search, so when {!find_zpp_cut}
    finds a cut but every search that would mark its [B] side runs out
    of budget, the result is empty although Broadcast is unsolvable.
    A node [v] is blocked iff an RMT 𝒵-pp cut shields it as
    the receiver: {!Cut.boundary_search} from [v] avoiding [N[D]] under
    [View.ad_hoc inst.graph] (the search {!Cut.find_rmt_zpp_cut} runs for
    receiver [v]) finds a witness.  A witness's [b_side] is shielded by
    that same cut, so all of its members are marked at once and their
    own searches skipped; such a node counts as blocked even where its
    own search would have run out of budget.  The remaining nodes get
    one search each, all sharing one view-nodes cache, each with
    {!Cut.boundary_search}'s default budget; a search that runs out of
    it leaves its node unblocked. *)

type run_result = {
  deciders : int;  (** honest players that decided *)
  honest : int;  (** honest players (dealer excluded) *)
  wrong : int;  (** honest players that decided incorrectly — safety *)
  complete : bool;  (** all honest players decided correctly *)
}

val run :
  ?adversary:int Rmt_net.Engine.strategy ->
  Instance.t ->
  x_dealer:int ->
  run_result
(** 𝒵-CPA in its original broadcast reading: every player decides and
    relays; success means all honest players decided the dealer's value. *)
