(** The rmt-lint rule set: determinism and domain-safety checks over
    typedtrees.

    Five rules protect the invariants that Theorem 4's machine checking
    (deterministic [Parsweep] sweeps, seeded attack replay) silently
    assumes of the OCaml sources:

    - {b R1 poly-compare}: [Stdlib.compare] / [=] / [<>] / [min] / [max] /
      [Hashtbl.hash] instantiated at a type that is not structurally a
      base type (int, bool, char, string, float, unit and tuples / lists /
      options / arrays thereof).  Polymorphic comparison on abstract or
      record types ignores dedicated comparators ([Nodeset.compare],
      [Structure.equal], …) and can diverge from them, silently breaking
      canonical orderings.  Comparisons against the constant constructors
      [[]] and [None] are exempt: they only inspect the constructor tag.
    - {b R2 iteration-order leak}: a [Hashtbl.fold] whose result is a
      list that escapes without a dominating [List.sort]* /
      [List.sort_uniq] / [Nodeset.of_list] normalization.  Hash-bucket
      order depends on the hash seed, so such lists change across
      [OCAMLRUNPARAM=R] runs and poison simulator transcripts.
    - {b R3 nondeterminism source}: any use of [Stdlib.Random], [Sys.time]
      or [Unix.gettimeofday]/[Unix.time] outside [lib/base/prng.ml] (the
      one sanctioned seeded generator) and [bench/].
    - {b R4 domain-unsafe state}: a top-level [let] binding of a mutable
      container (ref cell, [Hashtbl.t], [Buffer.t], [Queue.t], [Stack.t],
      [Bytes.t], array).  Module-level mutable state is shared by every
      [Domain] that [Parsweep.map] / [Campaign] fan-out spawns, and is a
      data race unless atomic.  [Atomic.t] and [Domain.DLS] are exempt.
    - {b R5 interface hygiene}: no [Obj.magic] / [Obj.repr] / [Obj.obj];
      the companion missing-[.mli] check lives in {!Lint} (it is a
      filesystem property, not a typedtree one).

    Further rules are {e interprocedural} and live outside this module —
    {b R6 domain-race} in {!Race}, {b R7 theorem4-taint} in {!Taint},
    {b R8 lock-discipline} in {!Lock} (all driven by the cross-module
    {!Callgraph}), and {b R9 automaton-discipline} / {b R10
    communication-budget} in {!Model}, driven by the extracted protocol
    models — but every catalog entry ([explain R9], …) is registered
    here. *)

type meta = {
  id : string;
  name : string;
  summary : string;  (** one line *)
  example : string;  (** one-line bad/fixed sketch, for [rules]/[explain] *)
  details : string;  (** several paragraphs, for [explain] *)
}

val all : meta list
(** Every rule R1..R10, in order.  R6/R7 are implemented in {!Race} and
    {!Taint}, R9/R10 in {!Model}; their catalog entries live here. *)

val find : string -> meta option
(** Look up by id, case-insensitively ([find "r2"] works). *)

val check_structure :
  file:string -> Typedtree.structure -> Finding.t list
(** Run every typedtree rule over one compilation unit.  [file] is the
    source path used in findings and for the R3 exemption list. *)

