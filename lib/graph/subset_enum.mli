(** Enumeration of connected node subsets.

    All the cut notions of the paper (RMT-cut, RMT Z-pp cut, adversary
    cover) quantify over cuts [C] whose receiver-side component is some
    connected set [B ∋ R]; the candidate cut is then the boundary [N(B)].
    This module enumerates exactly those [B].  The enumeration is
    exponential in the worst case, so every entry point takes a budget and
    reports exhaustion instead of silently truncating. *)

open Rmt_base

type outcome = {
  complete : bool;  (** false when the budget was exhausted *)
  visited : int;  (** number of subsets enumerated *)
}

val connected_supersets :
  ?budget:int ->
  Graph.t ->
  seed:int ->
  forbidden:Nodeset.t ->
  (Nodeset.t -> Nodeset.t -> bool) ->
  outcome
(** [connected_supersets g ~seed ~forbidden f] applies [f b nb] to every
    connected subset [B] of [nodes g − forbidden] with [seed ∈ B], each
    exactly once, where [nb] is its boundary [N(B)] in [g] (forbidden
    nodes included: the boundary is [B]'s, not the enumeration's
    frontier).  Stops early (with [complete = true]) as soon as [f]
    returns [true].  The default budget is [2_000_000] visited subsets.

    The enumeration is the standard binary-choice recursion on the
    frontier: grow [B] one boundary node at a time, branching on
    include/exclude, which yields every connected superset exactly once.
    The boundary is kept along the same recursion rather than recomputed:
    [N({seed})] is the seed's neighbourhood, and a growth step by
    [c ∈ N(B)] sets [N(B ∪ {c}) = (N(B) ∪ N(c)) ∖ (B ∪ {c})] — one union
    and one difference, not a fold over [B]. *)

val connected_supersets_acc :
  ?budget:int ->
  ?pinned:Nodeset.t ->
  Graph.t ->
  seed:int ->
  forbidden:Nodeset.t ->
  init:'acc ->
  extend:('acc -> int -> 'acc) ->
  (Nodeset.t -> Nodeset.t -> 'acc -> bool) ->
  outcome
(** Like {!connected_supersets} (the callback gets [B], [N(B)] and the
    accumulator), threading an accumulator along each
    growth branch: [extend acc c] is called when node [c] joins [B].  Used
    to maintain per-[B] data (joint views, the members' local structures)
    incrementally instead of recomputing them from scratch for every
    enumerated subset.  [init] is the accumulator for [{seed}] — i.e. it
    must already account for the seed node.  This is the module's one
    recursion: {!connected_supersets} is it with a unit accumulator.

    [pinned] (default empty) names nodes that may not sit on an emitted
    boundary: [f] is applied to exactly those [B] of the unpinned
    enumeration with [N(B) ∩ pinned = ∅], each once.  The recursion
    prunes rather than filters.  A pinned [x ∈ N(B)] stays on the boundary
    of every superset of [B] that leaves it out, so on entering [B] with
    such an [x] the recursion skips [f] on [B] and steps to [B ∪ {x}]
    (for the smallest such [x]), or abandons the whole subtree when [x]
    is forbidden or excluded by an earlier sibling branch.  [visited]
    counts every step, emitted or not; the budget caps the same count.
    An empty [pinned] costs one boolean test per step. *)
