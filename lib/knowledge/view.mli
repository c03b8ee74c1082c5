(** View functions [γ] — the Partial Knowledge Model of [13].

    Each player [v] knows the topology of a subgraph [γ(v)] of the
    communication graph that contains [v].  The joint view of a set [S] is
    the union [γ(S) = (⋃ V_v, ⋃ E_v)].  The model interpolates between:

    - the {e ad hoc} model, where [γ(v)] is just [v]'s star (its incident
      edges, nothing more), and
    - {e full knowledge}, where [γ(v) = G] for every [v].

    A view assignment is relative to a fixed graph [G]; constructors check
    that [v ∈ γ(v)] and [γ(v) ⊆ G]. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary

type t

type kind = Full | Ad_hoc | Radius of int | Custom
(** Which constructor built a view.  [Custom] assignments are opaque
    closures over their original graph: they cannot be transported to a
    modified topology (see {!rebuild}). *)

(** {1 Constructors} *)

val full : Graph.t -> t
(** [γ(v) = G]. *)

val ad_hoc : Graph.t -> t
(** [γ(v)] is the star of [v]: nodes [{v} ∪ N(v)], edges [v–u] only.
    (Note: strictly weaker than [radius 1], which also reveals the edges
    among neighbors.) *)

val radius : int -> Graph.t -> t
(** [γ(v)] is the subgraph induced by the ball of radius [k] around [v].
    [radius 0] gives the bare node — no knowledge beyond oneself. *)

val of_assignment : Graph.t -> (int -> Graph.t) -> t
(** Arbitrary assignment.
    @raise Invalid_argument if some [γ(v)] is not a subgraph of [G]
    containing [v]. *)

(** {1 Queries} *)

val graph : t -> Graph.t
(** The underlying communication graph. *)

val view : t -> int -> Graph.t
(** [γ(v)].  For ids outside the graph, the empty graph. *)

val view_nodes : t -> int -> Nodeset.t
(** [V(γ(v))], empty for ids outside the graph.  Full, ad hoc and radius
    views build no graph: the answer is [V(G)], [N[v]] or
    {!Rmt_graph.Graph.ball}[ v k], read straight off the graph; a custom
    view's is the node set of its [γ(v)]. *)

val covers_stars : t -> bool
(** Whether every [V(γ(v))] contains [v]'s closed neighbourhood [N[v]].
    Decided from {!kind} for full, ad hoc and radius [≥ 1] views (always
    true); radius-0 and custom views are checked node by node (a radius-0
    view passes only on a graph without edges).  The cut search's
    incorruptible-node prune ({!Rmt_core.Cut.boundary_search}) is exact
    only under such views. *)

val joint : t -> Nodeset.t -> Graph.t
(** [γ(S)]: union of the views of the members of [S]. *)

val joint_nodes : t -> Nodeset.t -> Nodeset.t

val leq : t -> t -> bool
(** The paper's partial order on view functions over the same graph:
    [leq γ' γ] iff [γ'(v)] is a subgraph of [γ(v)] for every [v]. *)

val local_structure : t -> Structure.t -> int -> Structure.t
(** [local_structure γ 𝒵 v] is the local adversary structure
    [𝒵_v = 𝒵^{V(γ(v))}]. *)

val kind : t -> kind

val rebuild : t -> Graph.t -> t option
(** [rebuild γ g'] re-derives the {e same} view constructor over a new
    graph — the knowledge {e rule} survives a topology delta even though
    every concrete [γ(v)] may change.  [None] for [Custom] views, whose
    assignment closure is anchored to the original graph; instance deltas
    ({!Rmt_core.Delta}) refuse topology updates under such views. *)

val label : t -> string
(** ["full"], ["ad-hoc"], ["radius-k"], or ["custom"] — which constructor
    built this view, as {!pp} prints it.  Code that branches on the
    constructor reads {!kind}. *)

val pp : Format.formatter -> t -> unit
