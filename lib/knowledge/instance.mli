(** RMT problem instances [ℐ = (G, 𝒵, γ, D, R)]. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary

type t = private {
  graph : Graph.t;
  structure : Structure.t;  (** the actual adversary structure [𝒵] *)
  view : View.t;  (** the view function [γ] *)
  dealer : int;
  receiver : int;
}

val make :
  graph:Graph.t ->
  structure:Structure.t ->
  view:View.t ->
  dealer:int ->
  receiver:int ->
  t
(** Checks: dealer and receiver are distinct nodes of the graph; the view
    is over the same graph; the structure's ground set is within the
    graph's nodes and excludes the dealer (the dealer is honest by
    definition of the problem).  @raise Invalid_argument otherwise. *)

val local_structure : t -> int -> Structure.t
(** [𝒵_v = 𝒵^{V(γ(v))}] — what player [v] initially knows of [𝒵]. *)

val local_view : t -> int -> Graph.t
(** [γ(v)]. *)

val admissible : t -> Nodeset.t -> bool
(** Is the set an admissible corruption set ([∈ 𝒵])? *)

val corruption_sets : t -> Nodeset.t list
(** Maximal admissible corruption sets. *)

val num_nodes : t -> int

val with_structure : t -> Structure.t -> t
(** Same instance with a different actual adversary structure (used by the
    indistinguishability constructions, where honest players cannot tell
    [𝒵] from [𝒵']). *)

val with_view : t -> View.t -> t

val ad_hoc_of : graph:Graph.t -> structure:Structure.t -> dealer:int -> receiver:int -> t
(** Convenience: instance in the ad hoc model. *)

val pp : Format.formatter -> t -> unit
