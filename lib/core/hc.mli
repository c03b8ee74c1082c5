(** The global restriction memo of the ⊕ oracle.

    {!Joint.joint_structure} builds [𝒵_B] by joining the members'
    restrictions [𝒵^{V(γ(v))}], and the join-based oracle
    ([Cut.find_rmt_cut_naive], [Cut.is_rmt_cut]) calls it once per
    enumerated component, over the same few restrictions.
    [memo_restrict] keeps one global table keyed by the {e content} of
    its arguments — one computation per distinct [(node set, structure)]
    pair, shared across calls.  The cut deciders never reach it: they
    test [𝒵_B] membership against [𝒵] itself
    ({!Joint.mem_restricted}) and restrict nothing.

    Design notes (DESIGN.md §12):

    - The table is strong, keyed by [(Nodeset.t, Structure.t)] content
      (hashed and compared with the typed equalities), capped, and
      flushed wholesale when full.  It holds its keys alive until the
      next flush or {!clear}.
    - Every entry point locks one global [Mutex], so the table is safe
      under [Parsweep]/[Domain] fan-outs.  rmt-lint has no carve-out for
      this file: its R8 lock-discipline pass (lib/lint/lock.ml) proves
      that every top-level table is reached only from [locked] critical
      sections, and that no critical section re-enters the lock or runs
      enumerative compute (the memo probes under the lock, computes
      outside and re-locks to store).  A new entry point that forgets
      [locked] is a finding.  The domain-safety property is also tested
      at runtime in test/core/test_hc.ml.
    - Callers: {!Joint.joint_structure} is the one caller in the
      library; the benchmark harnesses read {!stats} and call {!clear}
      (on the rmtbench workloads, whose ops run the deciders only, the
      restrict counters stay at 0).  There is no join memo: the cut
      deciders ({!Joint.mem_restricted}) and the RMT-PKA receiver's
      cover check ({!Joint.mem_joint}) decide [𝒵_B] membership locally
      and never build a join. *)

open Rmt_base
open Rmt_adversary

val memo_restrict : Nodeset.t -> Structure.t -> Structure.t
(** [memo_restrict a z] is [Structure.restrict a z], memoized globally by
    the content of [(a, z)]. *)

type stats = {
  live_sets : int;
      (** always [0], like the five fields after it: nothing is
          hash-consed any more.  Kept, with [join_*], because the
          benchmark harness reads every field *)
  live_structures : int;  (** always [0] *)
  set_hits : int;  (** always [0] *)
  set_misses : int;  (** always [0] *)
  structure_hits : int;  (** always [0] *)
  structure_misses : int;  (** always [0] *)
  restrict_hits : int;
  restrict_misses : int;
  join_hits : int;  (** always [0]: no join memo exists any more *)
  join_misses : int;  (** always [0] *)
}

val stats : unit -> stats
(** Snapshot of the counters.  A flush of the capped table turns later
    hits into misses: fine for bench reporting, not for golden files. *)

val clear : unit -> unit
(** Drop the table and reset the counters.  For benchmarks that need
    the miss path, and for test isolation. *)
