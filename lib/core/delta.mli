(** Instance deltas — the update language of the streaming solvability
    machinery (DESIGN.md §12).

    A delta is a small, checkable edit to a live {!Rmt_knowledge.Instance}:
    topology edits (edge add/remove, node join/crash) and adversary-model
    edits (one maximal set added/retired).  [apply] re-validates every
    instance invariant and re-derives the view over the new topology via
    {!Rmt_knowledge.View.rebuild}, so a stream of deltas can never smuggle
    an ill-formed instance past [Instance.make].

    Semantic choices worth knowing:
    - [Remove_node] restricts the adversary structure to the surviving
      nodes (a crashed node leaves the adversary's reach); removing the
      dealer or receiver is an error, not a re-rooting.
    - [Add_node] leaves the structure untouched: a joining node is not in
      any admissible set until an explicit [Add_set] says so.
    - Topology deltas under a [Custom] view are errors — an opaque
      assignment closure cannot be transported to a new graph. *)

open Rmt_base
open Rmt_knowledge

type t =
  | Add_edge of int * int  (** both endpoints must already exist *)
  | Remove_edge of int * int
  | Add_node of int * Nodeset.t
      (** a fresh node joining, linked to the given existing nodes
          (possibly none: an isolated joiner) *)
  | Remove_node of int  (** a crash; must not be the dealer or receiver *)
  | Add_set of Nodeset.t
      (** one more maximal admissible set (and its subsets) *)
  | Remove_set of Nodeset.t
      (** retire one currently-maximal set (its proper subsets stay
          admissible only if another maximal set covers them) *)

val apply : Instance.t -> t -> (Instance.t, string) result

val apply_all : Instance.t -> t list -> (Instance.t, string) result
(** Left fold of {!apply}; stops at the first error. *)

val pp : Format.formatter -> t -> unit
