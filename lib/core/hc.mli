(** Hash-consing of node sets and adversary structures, with the global
    memo caches built on top of it.

    The per-search restriction memos in [Cut]/[Joint] only amortize work
    {e within} one solvability search.  A long-lived consumer (the
    {!Service} answering queries over a stream of instance deltas, or a
    sweep revisiting overlapping sub-structures) re-derives the same
    restrictions and joins over and over.  Hash-consing gives every
    distinct [Nodeset.t] / [Structure.t] {e content} a unique integer id,
    so those memos can become global tables keyed by id pairs — one
    canonical computation per distinct input, shared across calls,
    searches and service generations.

    Design notes (DESIGN.md §12):

    - Canonical cells live in {e weak} tables ([Weak.Make]): hash-consing
      never extends the lifetime of a value that the rest of the program
      has dropped.  Ids are drawn from a monotone counter and {e never
      reused}, so a memo entry keyed by the id of a collected cell can
      only go stale (it is unreachable by any future lookup), never
      wrong.
    - The memo caches themselves are {e bounded strong} tables keyed by
      id pairs.  Keying them weakly by the cells would make entries die
      at the next minor collection (callers hold raw values, not cells);
      instead they are capped and flushed wholesale when full.
    - Every entry point locks one global [Mutex], so the tables are safe
      under [Parsweep]/[Domain] fan-outs.  rmt-lint has no carve-out for
      this file: its R8 lock-discipline pass (lib/lint/lock.ml) proves
      that every top-level table is reached only from [locked] critical
      sections, and that no critical section re-enters the lock or runs
      enumerative compute (the memo wrappers probe under the lock,
      compute outside and re-lock to store).  A new entry point that
      forgets [locked] is a finding.  The domain-safety property is also
      tested at runtime in test/core/test_hc.ml.
    - Callers: every cut decider (RMT-cut, RMT 𝒵-pp cut and Broadcast,
      all through {!Cut.boundary_search}) reaches [memo_restrict] through
      {!Joint.restriction_cache}; the benchmark harnesses read {!stats}
      and call {!clear}.  There is no join memo: the cut deciders and the
      RMT-PKA receiver's cover check decide [𝒵_B] membership locally
      ({!Joint.mem_joint}) and never build a join. *)

open Rmt_base
open Rmt_adversary

val set : Nodeset.t -> Nodeset.t
(** The canonical representative of the set's content.  [set a == set b]
    iff [Nodeset.equal a b]. *)

val set_id : Nodeset.t -> int
(** Unique id of the canonical representative: [set_id a = set_id b] iff
    [Nodeset.equal a b] (while either representative is live). *)

val structure : Structure.t -> Structure.t
(** Canonical representative of the structure (ground set + antichain). *)

val structure_id : Structure.t -> int
(** [structure_id s1 = structure_id s2] iff [Structure.equal s1 s2]. *)

val equal_set : Nodeset.t -> Nodeset.t -> bool
(** O(1) after consing: physical equality of canonical representatives.
    Coincides with [Nodeset.equal] (test/core/test_hc.ml). *)

val equal_structure : Structure.t -> Structure.t -> bool
(** Same, for structures; coincides with [Structure.equal]. *)

val memo_restrict : Nodeset.t -> Structure.t -> Structure.t
(** [memo_restrict a z] is [Structure.restrict a z], memoized globally by
    [(set_id a, structure_id z)].  The result is itself canonical, so
    chains of cached operations keep hitting. *)

type stats = {
  live_sets : int;  (** canonical set cells currently live *)
  live_structures : int;
  set_hits : int;  (** [set]/[set_id] calls answered by an existing cell *)
  set_misses : int;
  structure_hits : int;
  structure_misses : int;
  restrict_hits : int;
  restrict_misses : int;
  join_hits : int;
      (** always [0]: no join memo exists any more.  Kept with
          [join_misses] because the benchmark harness still reads both *)
  join_misses : int;  (** always [0] *)
}

val stats : unit -> stats
(** Snapshot of the counters.  Live counts (and, after a collection,
    hit/miss splits) depend on GC timing: fine for bench reporting, not
    for golden files. *)

val clear : unit -> unit
(** Drop every table and reset the counters (ids keep growing).  For
    benchmarks that need the miss path, and for test isolation. *)
