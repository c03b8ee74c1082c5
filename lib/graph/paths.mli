(** Simple paths.

    A path is a node list from source to target, without repetitions.
    Path-carrying protocols (PPA, RMT-PKA) attach propagation trails to
    messages; the receiver needs to enumerate the simple D–R paths of a
    reconstructed graph to check {e fullness} of a message set.  The number
    of simple paths can be exponential, so every enumeration takes an
    explicit budget and reports whether it was exhausted. *)

type path = int list

val is_path_in : Graph.t -> path -> bool
(** Consecutive nodes adjacent, all nodes present, no repetition. *)

val find_simple_path :
  ?budget:int -> Graph.t -> int -> int -> (path -> bool) -> path option * bool
(** [find_simple_path g s t pred]: first simple [s]–[t] path (in DFS
    order) satisfying [pred], enumerated lazily.  The [budget] (default
    [200_000]) bounds the number of DFS edge extensions; the boolean is
    the completeness flag: [None, false] means the budget ran out before
    the space was covered. *)

val shortest_path : Graph.t -> int -> int -> path option
(** One BFS shortest path. *)
