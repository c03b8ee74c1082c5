(** PPA — the Path Propagation Algorithm, the full-knowledge baseline
    of [13].

    The dealer's value floods with propagation trails (the same relay rule
    as RMT-PKA's type-1 messages).  The receiver — who knows the whole
    topology and the whole adversary structure — decides on [x] once the
    set [P_x] of D–R paths that delivered [x] is not {e coverable}: no
    admissible corruption set [Z ∈ 𝒵] hits every path of [P_x] (so at
    least one wholly-honest path delivered [x]).

    Safety holds unconditionally: a wrong value travels only on paths
    through the actual corruption set [T], which covers them.  Liveness
    holds exactly when no two admissible sets [Z₁ ∪ Z₂] form a D–R cut —
    the classic characterization for RMT with full knowledge. *)

open Rmt_graph
open Rmt_adversary
open Rmt_net

type msg = int Flood.msg

type state

val automaton :
  Graph.t -> structure:Structure.t -> dealer:int -> receiver:int ->
  x_dealer:int -> (state, msg) Engine.automaton

val decision : state -> int option

val solvable : Graph.t -> structure:Structure.t -> dealer:int -> receiver:int -> bool
(** The full-knowledge feasibility condition: no two admissible sets
    jointly separate [D] from [R]. *)

val msg_size : msg -> int
(** [1 + |trail|]: the value and one unit per trail node. *)

val run :
  ?adversary:msg Engine.strategy ->
  Graph.t -> structure:Structure.t -> dealer:int -> receiver:int ->
  x_dealer:int -> Engine.result
(** One run on the engine, stopping once the receiver decides; bits are
    {!msg_size}. *)
