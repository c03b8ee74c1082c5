(** General adversary structures (Hirt–Maurer).

    An adversary structure over a ground set [A] is a monotone family
    [𝒵 ⊆ 2^A]: with every set it contains all its subsets.  We represent a
    structure by the {e antichain of its maximal sets}, which makes
    membership a subset test against the maximal sets, and keeps the
    restriction and join operations polynomial in the antichain size.

    The ground set matters: the paper's [⊕] operation (Definition 2) is
    typed [𝕋^A × 𝕋^B → 𝕋^(A∪B)], and its compatibility condition
    [Z₁ ∩ B = Z₂ ∩ A] mentions the ground sets explicitly, so they are part
    of the value.

    Values are canonical: two structures are [equal] iff they have the same
    ground set and the same family of sets.

    Internally the antichain is {e packed}: maximal sets are stored in an
    array sorted by (cardinality, [Nodeset.compare]) with cached per-set
    popcounts and one-word signatures.  [mem] prefilters subset tests by
    size and signature, and the antichain reduction only compares a set
    against strictly larger ones (size-bucket pruning), so both are far
    below the naive O(k²) full-subset-check regime on large antichains. *)

open Rmt_base

type t

(** {1 Construction} *)

val of_sets : ground:Nodeset.t -> Nodeset.t list -> t
(** Monotone closure of the given sets (i.e. the given sets become the
    candidate maximal sets; non-maximal ones are dropped).
    @raise Invalid_argument if some set is not within [ground]. *)

val empty_family : ground:Nodeset.t -> t
(** The empty family: {e no} corruption set is admissible, not even [∅].
    (Distinct from {!trivial}.) *)

val trivial : ground:Nodeset.t -> t
(** The family [{∅}]: the adversary corrupts nobody. *)

val threshold : ground:Nodeset.t -> int -> t
(** Global threshold: all sets of size [<= t].
    @raise Invalid_argument when the antichain [C(|ground|, t)] would
    exceed one million sets. *)

val of_predicate : ground:Nodeset.t -> (Nodeset.t -> bool) -> t
(** Structure containing every subset of [ground] satisfying the
    (monotone) predicate, reduced to its antichain of maximal sets.
    Enumerates all subsets: requires [|ground| <= 20].  The predicate must
    be downward closed; this is checked on the fly and a violation raises
    [Invalid_argument]. *)

val add_set : Nodeset.t -> t -> t
(** Adds one admissible set (and implicitly its subsets). *)

val reduce : Nodeset.t list -> Nodeset.t list
(** Antichain reduction: keeps only the maximal sets, deduplicated, in
    canonical (size, then [Nodeset.compare]) order.  The kernel under
    every constructor, exposed for candidate pipelines and tests. *)

(** Incremental antichain accumulation.  A mutable working antichain that
    maintains maximality on every insert, so candidate generators (the ⊕
    join in particular) can skip a candidate the moment it is covered by
    an earlier one instead of materializing all candidates and reducing
    quadratically at the end. *)
module Builder : sig
  type b

  val create : unit -> b

  val covered : b -> Nodeset.t -> bool
  (** Is the set dominated by (or equal to) a set already accumulated? *)

  val add : b -> Nodeset.t -> unit
  (** Insert, dropping the set if covered and evicting any accumulated
      sets it dominates. *)

  val cardinal : b -> int

  val to_structure : ground:Nodeset.t -> b -> t
  (** Package the accumulated antichain.
      @raise Invalid_argument if some set is not within [ground]. *)
end

(** {1 Queries} *)

val ground : t -> Nodeset.t

val maximal_sets : t -> Nodeset.t list
(** The antichain, in canonical (sorted) order. *)

val num_maximal : t -> int

val mem : Nodeset.t -> t -> bool
(** [mem z s]: is [z] an admissible corruption set? *)

val is_empty_family : t -> bool

val equal : t -> t -> bool

val subset_family : t -> t -> bool
(** [subset_family s1 s2]: every set of [s1] belongs to [s2] (family
    inclusion, ground sets ignored). *)

(** {1 Operations} *)

val restrict : Nodeset.t -> t -> t
(** [restrict a s] is [𝒵^A = { Z ∩ A | Z ∈ 𝒵 }], with ground set
    [ground s ∩ a]. *)

val satisfies_qk : t -> Nodeset.t -> int -> bool
(** [satisfies_qk s a k] is the classical Hirt–Maurer Q⁽ᵏ⁾ condition on
    the node set [a]: {e no} [k] admissible sets jointly cover [a].
    Q⁽²⁾ over the middle set characterizes solvability of the paper's
    basic instances (Figure 1); Q⁽²⁾/Q⁽³⁾ over the whole player set are
    the classical feasibility thresholds for broadcast and MPC. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
