(** CPA — Koo's Certified Propagation Algorithm, the t-locally-bounded
    ancestor of 𝒵-CPA.

    A player adjacent to the dealer decides on the dealer's value; any
    other player decides on [x] after receiving [x] from [t + 1] distinct
    neighbors (at most [t] of which can be corrupted, so at least one is
    honest); deciders forward once and terminate.  This is exactly 𝒵-CPA
    specialized to the local-threshold structure
    [𝒵_v = {S ⊆ 𝒩(v) : |S| ≤ t}], and is implemented here independently
    as a baseline for the uniqueness-hierarchy experiment (E5). *)

open Rmt_graph
open Rmt_net

type state

val automaton :
  Graph.t -> dealer:int -> receiver:int -> t:int -> x_dealer:int ->
  (state, int) Engine.automaton

val decision : state -> int option

val run :
  ?adversary:int Engine.strategy ->
  Graph.t -> dealer:int -> receiver:int -> t:int -> x_dealer:int ->
  Engine.result
