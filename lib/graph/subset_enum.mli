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
  (Nodeset.t -> bool) ->
  outcome
(** [connected_supersets g ~seed ~forbidden f] applies [f] to every
    connected subset [B] of [nodes g − forbidden] with [seed ∈ B], each
    exactly once.  Stops early (with [complete = true]) as soon as [f]
    returns [true].  The default budget is [2_000_000] visited subsets.

    The enumeration is the standard binary-choice recursion on the
    frontier: grow [B] one boundary node at a time, branching on
    include/exclude, which yields every connected superset exactly once. *)

val connected_supersets_acc :
  ?budget:int ->
  Graph.t ->
  seed:int ->
  forbidden:Nodeset.t ->
  init:'acc ->
  extend:('acc -> int -> 'acc) ->
  (Nodeset.t -> 'acc -> bool) ->
  outcome
(** Like {!connected_supersets}, threading an accumulator along each
    growth branch: [extend acc c] is called when node [c] joins [B].  Used
    to maintain per-[B] data (joint views, the members' local structures)
    incrementally instead of recomputing them from scratch for every
    enumerated subset.  [init] is the accumulator for [{seed}] — i.e. it
    must already account for the seed node. *)

val find_connected_superset :
  ?budget:int ->
  Graph.t ->
  seed:int ->
  forbidden:Nodeset.t ->
  (Nodeset.t -> bool) ->
  Nodeset.t option * bool
(** First [B] satisfying the predicate, if any; the boolean is the
    completeness flag (a [None] with [false] means "unknown: budget ran
    out"). *)
