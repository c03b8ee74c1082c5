(** Compatibility surface for the end-to-end benchmark (rmtbench/), which
    calls {!clear} before every pass and reports {!stats} per pass.  The
    library keeps no memo: {!Joint.joint_structure}, the ⊕ oracle,
    restricts each member's structure on every call, and the cut
    deciders restrict nothing.  So {!stats} reads all zeros and {!clear}
    does nothing.  This module goes with the benchmark's next change
    (ROADMAP item 1), which moves rmtbench onto a per-run counter
    sink. *)

type stats = {
  live_sets : int;
  live_structures : int;
  set_hits : int;
  set_misses : int;
  structure_hits : int;
  structure_misses : int;
  restrict_hits : int;
  restrict_misses : int;
  join_hits : int;
  join_misses : int;
}
(** Every field reads [0]; rmtbench names eight of them. *)

val stats : unit -> stats
(** All zeros. *)

val clear : unit -> unit
(** Does nothing. *)
