(** Standard adversary structures over a communication graph.

    The general adversary model subsumes the global threshold model of
    Lamport–Shostak–Pease and the t-locally-bounded model of Koo; these
    builders construct those families explicitly so that the general
    machinery can be exercised against the classic special cases. *)

open Rmt_base
open Rmt_graph

val global_threshold : Graph.t -> dealer:int -> int -> Structure.t
(** Sets of at most [t] nodes, dealer excluded (the dealer is honest by
    assumption throughout the paper). *)

val t_local : Graph.t -> dealer:int -> int -> Structure.t
(** Koo's t-locally-bounded family: sets [Z] (dealer excluded) with
    [|Z ∩ N(v)| <= t] for every node [v].  Built by subset enumeration —
    requires [num_nodes g <= 21] (dealer is excluded from the ground). *)

val from_maximal : Graph.t -> dealer:int -> Nodeset.t list -> Structure.t
(** Explicit antichain over the graph's nodes minus the dealer; sets are
    clipped to exclude the dealer. *)

val random_antichain :
  Prng.t -> Graph.t -> dealer:int -> sets:int -> max_size:int -> Structure.t
(** [sets] random candidate maximal sets, each a uniform subset of the
    non-dealer nodes of size at most [max_size] (uniform in [1..max_size]);
    reduced to an antichain.  The workhorse workload for general-adversary
    experiments. *)
