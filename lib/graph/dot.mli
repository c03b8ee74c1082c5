(** Graphviz (DOT) export, for inspecting instances and documenting
    experiments. *)

open Rmt_base

val to_dot :
  ?highlight:(int * string) list ->
  Graph.t ->
  string
(** [to_dot g] renders an undirected DOT graph named [g].  [highlight]
    assigns fill colors to specific nodes (e.g. dealer, receiver, a
    corruption set). *)

val instance_dot :
  dealer:int -> receiver:int -> ?corrupted:Nodeset.t -> Graph.t -> string
(** Convenience: dealer green, receiver blue, corrupted nodes red. *)
