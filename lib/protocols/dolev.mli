(** Dolev's disjoint-paths transmission — the classic ancestor ([2] in the
    paper's references, adapted to a single receiver).

    The dealer routes its value along a fixed set of internally
    node-disjoint D–R paths (source routing, not flooding); the receiver
    takes the majority among the path deliveries.  With a global threshold
    [t] adversary and [2t+1] disjoint paths, at most [t] deliveries can be
    corrupted, so the majority is always the dealer's value.

    This baseline differs from PPA in two instructive ways: it requires
    {e full topology knowledge at the dealer} (to compute the routes) and
    it only supports threshold adversaries — the general-adversary and
    partial-knowledge machinery of the paper is exactly what removes those
    two limitations. *)

open Rmt_graph
open Rmt_net

type msg = int Flood.msg

val routes : Graph.t -> dealer:int -> receiver:int -> Paths.path list
(** A maximal set of internally node-disjoint D–R paths (greedy shortest
    first; size at least the greedy disjoint-path bound).  The direct edge
    counts as a path. *)

type state

val automaton :
  Graph.t -> dealer:int -> receiver:int -> x_dealer:int ->
  (state, msg) Engine.automaton
(** Relays forward a message only if they are the next hop of its route;
    the receiver decides on the strict majority of route deliveries (ties
    and sub-majorities: no decision). *)

val decision : state -> int option

val run :
  ?adversary:msg Engine.strategy ->
  Graph.t -> dealer:int -> receiver:int -> x_dealer:int -> Engine.result
(** One run on the engine, stopping once the receiver decides. *)

val tolerates : Graph.t -> dealer:int -> receiver:int -> int
(** Largest global threshold [t] this instance supports:
    [(disjoint paths - 1) / 2], or [max_int] for adjacent D–R. *)
