(** Trail-carrying flooding — the propagation backbone of path-based
    protocols (PPA, RMT-PKA).

    A message carries its propagation trail [p] (originator first).  The
    relay rule of Protocol 1 applies to any payload: on reception of
    [(a, p)] from [u], a relay [v] discards the message if [v ∈ p] or
    [tail p ≠ u], and otherwise forwards [(a, p ‖ v)] to all its
    neighbors.  The tail check guarantees that any trail that does not
    reflect the true propagation contains at least one corrupted node. *)

open Rmt_graph

type 'p msg = {
  payload : 'p;
  trail : Paths.path;
}

val trail_ok : self:int -> src:int -> Paths.path -> bool
(** The receiving-side validity check: [self ∉ p], [tail p = src], and
    [p] is simple. *)

val broadcast : Graph.t -> int -> 'm -> 'm Engine.send list
(** [broadcast g v m] sends [m] to every neighbor of [v] — the one
    neighbour-multicast helper, for any message type. *)

val originate : Graph.t -> int -> 'p -> 'p msg Engine.send list
(** [originate g v a] broadcasts [(a, [v])]. *)

val relay :
  Graph.t -> int -> inbox:(int * 'p msg) list -> 'p msg Engine.send list
(** Apply the relay rule to a whole inbox. *)
