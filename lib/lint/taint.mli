(** R7 — the Theorem-4 taint pass.

    Tracks adversary-controlled data (Engine [~inbox] deliveries, Attack
    programs, Flood messages, Engine strategies) to receiver decisions
    ([_.decided <- ...], Campaign verdict construction) across the
    cross-module {!Callgraph}, and reports every source-to-sink call
    chain on which {e neither} sanitizer family appears:

    - {b cover/solvability}: [Cut.find_rmt_cut] / [Cut.find_rmt_zpp_cut]
      / [Cut.is_rmt_cut], [Solvability.is_solvable] and variants,
      [Structure.mem] / [Structure.maximal_sets] (quantifying a
      predicate over every maximal adversary set is a cover check),
      [Subset_enum.connected_supersets];
    - {b positive-connectivity}: [Connectivity.connected] /
      [connected_avoiding] / [is_cut], [Paths.shortest_path],
      [Flood.trail_ok].  [Paths.find_simple_path] is deliberately
      excluded: an adversary can always supply a claimed graph that
      contains {e some} path (the PR 2 vacuous-fullness bug), so its
      success verifies nothing.

    A function is sanitized in a family when it references one of that
    family's predicates directly, in a transitive callee, or — via the
    {!Summary} store's instantiation analysis — in a function its
    callers pass into one of its higher-order parameters (a [~decider]
    argument's guards count).  Findings are anchored at the sink and
    carry the full witnessing chain. *)

type family = Cover | Connectivity

val analyze : Summary.store -> Finding.t list
(** Sorted by {!Finding.compare}. *)

val audit : Summary.store -> string
(** Human-readable report of every source, every sink and, per sink and
    family, either "guarded" or the unguarded witness chain — the
    [rmt-lint paths] subcommand. *)
