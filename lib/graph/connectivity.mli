(** Reachability, distances, cuts. *)

open Rmt_base

val reachable_from : ?avoiding:Nodeset.t -> Graph.t -> int -> Nodeset.t
(** All nodes reachable from the source in the subgraph with [avoiding]
    removed.  Includes the source itself (when not avoided); empty when the
    source is absent or avoided. *)

val component_of : ?avoiding:Nodeset.t -> Graph.t -> int -> Nodeset.t
(** Synonym of [reachable_from]; the connected component of the node. *)

val is_connected : Graph.t -> bool
(** True for the empty graph. *)

val connected_avoiding : Graph.t -> int -> int -> Nodeset.t -> bool
(** [connected_avoiding g s t c]: is there an [s]–[t] path in [g − c]? *)

val distances_from : Graph.t -> int -> (int * int) list
(** BFS distances [(node, dist)] from the source, source included at 0. *)

val diameter : Graph.t -> int option
(** [None] when disconnected or empty. *)

val is_cut : Graph.t -> int -> int -> Nodeset.t -> bool
(** [is_cut g d r c]: [c] is a node cut separating [d] from [r] — i.e.
    [d, r ∉ c] and no [d]–[r] path survives removing [c].  False when [d]
    or [r] belongs to [c] or is absent from [g]. *)

val min_vertex_cut : Graph.t -> int -> int -> int
(** Size of a minimum [d]–[r] vertex cut (Menger), computed with
    unit-capacity node-split max-flow.  Returns [max_int] when [d] and [r]
    are adjacent or equal (no cut exists). *)
