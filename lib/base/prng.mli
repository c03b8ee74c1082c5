(** Deterministic splitmix64 pseudo-random generator.

    Every source of randomness in the repository flows through an explicit
    [Prng.t] so that all experiments are reproducible bit-for-bit from their
    seed.  The generator state is mutable; use [split] to derive independent
    streams for sub-tasks without coupling their consumption order. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** A fresh generator whose stream is independent of subsequent draws from
    the parent. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0 .. bound-1].
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val chance : t -> float -> bool
(** [chance t p] is a Bernoulli draw with probability [p]: it consumes
    the same single draw as, and always equals, [float t 1.0 < p], but
    returns no boxed float. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val subset : t -> Nodeset.t -> float -> Nodeset.t
(** [subset t s p] keeps each element of [s] independently with
    probability [p]. *)

val sample : t -> Nodeset.t -> int -> Nodeset.t
(** [sample t s k] draws a uniform subset of [s] of size [min k (size s)]. *)
