(** R6 — the Domain-race pass.

    Flags, at every fan-out call site ([Parsweep.map],
    [Parsweep.map_list], [Timing.time_with_domains], [Domain.spawn]), (a)
    mutable containers captured by the closure from outside itself, and
    (b) top-level mutable state reachable — transitively through the
    cross-module call graph — from anything the closure calls.  The
    second kind of finding carries the witnessing call chain.
    Domain-local allocations are exempt by construction;
    [lib/workloads/parsweep.ml] (the sanctioned fan-out engine, whose
    disjoint-index writes this flow-insensitive pass cannot justify) is
    exempt by file.  Lock-protected globals are exempt by the
    {!Summary} store's analysis — their residual obligations belong to
    R8 ({!Lock}). *)

val analyze : Summary.store -> Finding.t list
(** Sorted by {!Finding.compare}. *)
