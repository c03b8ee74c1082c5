(** Dense bitset representation of sets of node identifiers.

    Nodes are non-negative integers.  Sets are immutable: no operation
    mutates its arguments, but a result may share storage with an argument
    (for instance [add v s == s] when [v] is already a member), so
    immutability, not freshness, is the guarantee.  The representation is
    an [int array] of 62-bit words sized to the largest member, so sets
    over small universes (the regime of every experiment in this
    repository) cost a handful of words and all the set-algebraic
    operations used by the adversary-structure machinery ([subset],
    [inter], [union], [diff]) are word-parallel.

    One-word fast path: a set whose ids are all below 62 is one word.
    When the result of [union] (both operands one word), [inter] (either
    operand), [diff] (the first operand), [add] or [remove] (the set, and
    for [add] an id below 62) is bounded by one-word operands, it is built
    directly as an empty or one-word array on the minor heap, with no
    runtime call.  Other operands take the general word loops; both paths
    give the same sets. *)

type t

(** {1 Construction} *)

val empty : t

val singleton : int -> t
(** [singleton v] is [{v}].  @raise Invalid_argument if [v < 0]. *)

val of_list : int list -> t

val of_array : int array -> t

val range : int -> int -> t
(** [range lo hi] is [{lo, lo+1, ..., hi-1}]; empty whenever [lo >= hi]. *)

val add : int -> t -> t
(** Physical identity when [v] is already a member: [add v s == s], so
    no-op additions on hot paths allocate nothing. *)

val remove : int -> t -> t
(** Physical identity when [v] is absent: [remove v s == s]. *)

(** {1 Queries} *)

val is_empty : t -> bool

val mem : int -> t -> bool

val size : t -> int
(** Number of elements. *)

val signature : t -> int
(** One-word fingerprint: the OR-fold of the representation words.
    [subset a b] implies [signature a land lnot (signature b) = 0], so a
    failing signature test refutes subset inclusion without touching the
    arrays; on universes below one word it is exact.  Used by the packed
    antichain representation in [Rmt_adversary.Structure]. *)

val subset : t -> t -> bool
(** [subset a b] is [a ⊆ b]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order compatible with [equal]; suitable for [Map]/[Set] keys. *)

val disjoint : t -> t -> bool

val max_elt_opt : t -> int option

val min_elt_opt : t -> int option

val choose_opt : t -> int option
(** An arbitrary (but deterministic) element. *)

(** {1 Set algebra} *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

(** {1 Iteration} *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending order. *)

val for_all : (int -> bool) -> t -> bool
(** Calls the predicate in ascending order and stops at the first element
    that fails it. *)

val exists : (int -> bool) -> t -> bool
(** Calls the predicate in ascending order and stops at the first element
    that satisfies it. *)

val filter : (int -> bool) -> t -> t

val elements : t -> int list
(** Ascending order. *)

val to_array : t -> int array

(** {1 Enumeration of subsets} *)

val subsets_iter : t -> (t -> unit) -> unit
(** [subsets_iter s f] applies [f] to all 2^|s| subsets of [s].  Intended
    for exhaustive small-universe checks; raises [Invalid_argument] when
    [size s > 20] to guard against accidental blow-ups. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)

val to_string : t -> string

val hash : t -> int
