(** Minimal knowledge needed for RMT (end of Section 3).

    View functions are partially ordered by pointwise subgraph inclusion;
    the non-existence of an RMT-cut characterizes exactly the views under
    which RMT is solvable, so "how much must players know?" becomes a
    search for minimal views without an RMT-cut.  Two searches are
    provided: the radius frontier (smallest uniform [k] such that
    [radius k] views suffice) and a greedy per-node minimization, which
    produces a view that is minimal in the partial order (shrinking any
    single node's view to a smaller radius re-creates a cut). *)

open Rmt_graph
open Rmt_knowledge

val radius_frontier :
  graph:Graph.t -> structure:Rmt_adversary.Structure.t ->
  dealer:int -> receiver:int -> (int * Solvability.feasibility) list
(** Feasibility at every radius [0 .. diameter]; the frontier is the first
    [Solvable] entry (if any). *)

type minimal =
  | Radius of int  (** the first [Solvable] entry of {!radius_frontier} *)
  | Unsolvable  (** every radius reads [Unsolvable] *)
  | Unknown
      (** no radius reads [Solvable] and some search ran out of budget:
          an instance this leaves undecided may still be solvable *)

val minimal_radius :
  graph:Graph.t -> structure:Rmt_adversary.Structure.t ->
  dealer:int -> receiver:int -> minimal
(** Smallest [k] with no RMT-cut under [radius k] views, read off
    {!radius_frontier}. *)

val greedy_minimal_views : Instance.t -> (int * int) list option
(** Starting from per-node radii equal to the graph's diameter, repeatedly
    shrink one node's radius while no RMT-cut appears.  Returns the
    resulting per-node radii [(node, radius)], or [None] when the instance
    is unsolvable even at full radii.  The result is a locally minimal
    knowledge assignment — the paper's "minimal γ" notion restricted to
    the radius-indexed chain of views. *)
