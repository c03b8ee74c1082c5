(** Undirected graphs over integer node identifiers.

    The node set is explicit and need not be contiguous: partial views
    [γ(v)] are arbitrary subgraphs of the communication graph, and a
    Byzantine adversary may report {e fictitious} nodes with identifiers
    outside the real graph, so the representation must accommodate sparse
    and growing id spaces.  Graphs are immutable. *)

open Rmt_base

type t

(** {1 Construction} *)

val empty : t

val add_node : int -> t -> t
(** Idempotent.  @raise Invalid_argument on a negative id. *)

val add_nodes : Nodeset.t -> t -> t

val add_edge : int -> int -> t -> t
(** Adds both endpoints if absent.  Self-loops are rejected with
    [Invalid_argument]; channels connect distinct parties. *)

val remove_node : int -> t -> t
(** Removes the node and all incident edges. *)

val remove_edges : (int * int) list -> t -> t
(** Removes each listed edge, in either orientation; absent edges are
    ignored and every node stays. *)

val of_edges : (int * int) list -> t

val of_nodes_edges : Nodeset.t -> (int * int) list -> t
(** Node set given explicitly so isolated nodes survive.  Equal to
    folding {!add_edge} over the list, then {!add_nodes}, with the same
    [Invalid_argument]s, but fills one adjacency array. *)

(** {1 Queries} *)

val nodes : t -> Nodeset.t

val num_nodes : t -> int

val num_edges : t -> int

val mem_node : int -> t -> bool

val mem_edge : int -> int -> t -> bool

val neighbors : int -> t -> Nodeset.t
(** Open neighborhood [N(v)]; empty for absent nodes. *)

val closed_neighborhood : int -> t -> Nodeset.t
(** [N(v) ∪ {v}]. *)

val neighborhood_of_set : Nodeset.t -> t -> Nodeset.t
(** [N(S)]: nodes outside [S] adjacent to some node of [S]. *)

val degree : int -> t -> int

val edges : t -> (int * int) list
(** Each edge once, as [(u, v)] with [u < v], sorted. *)

val equal : t -> t -> bool

(** {1 Subgraphs and combinations} *)

val induced : Nodeset.t -> t -> t
(** Subgraph induced by the given node set (absent ids ignored). *)

val union : t -> t -> t
(** Union of node sets and edge sets — the joint view [γ(S)] operation. *)

val union_all : t list -> t
(** Union of every graph in the list ([empty] for none) — the joint view
    of a set of nodes — built with one adjacency allocation rather than a
    chain of persistent {!union}s. *)

val induced_union : Nodeset.t -> t list -> t
(** [induced_union s gs] is [induced s (union_all gs)], built in one pass:
    the claimed graph [G_M] of a message set is the union of its members'
    reported views, induced on its members. *)

val is_subgraph : t -> t -> bool
(** [is_subgraph h g]: every node and edge of [h] is in [g]. *)

val ball : int -> int -> t -> Nodeset.t
(** [ball v k g]: the nodes within distance [k] of [v] in [g], found by
    one BFS; empty when [v] is absent.  Radius [0] gives [{v}]. *)

val restrict_to_radius : int -> int -> t -> t
(** [restrict_to_radius v k g] is [induced (ball v k g) g] — the
    [k]-neighborhood view.  Radius [0] gives the single node [v]; radius
    [1] gives [v], its neighbors and all edges among them. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
