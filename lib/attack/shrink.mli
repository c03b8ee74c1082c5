(** Delta-debugging minimization of failing (instance, attack) pairs.

    Given a predicate [keep] that holds for the starting pair (e.g. "the
    campaign still classifies this run the same way"), [minimize] greedily
    applies size-reducing moves as long as the predicate keeps holding:

    - drop a corrupted node's whole program;
    - simplify a node's base behavior to [Silent];
    - drop a single injection;
    - remove an uninvolved graph node (not dealer, receiver, or corrupted,
      and never disconnecting dealer from receiver), restricting the
      adversary structure to the surviving ground set and rebuilding the
      view with the same constructor.

    Every accepted move strictly decreases [Program.size + num_nodes], so
    minimization terminates; the candidate order is fixed, so for a
    deterministic [keep] the minimum found is deterministic too.  [budget]
    caps the number of [keep] evaluations (each typically one protocol
    run). *)

open Rmt_knowledge

val drop_nth : 'a list -> int -> 'a list
(** The list without its [n]th element (from 0). *)

val greedy :
  budget:int -> keep:('a -> bool) -> candidates:('a -> 'a Seq.t) -> 'a -> 'a
(** The greedy fixpoint both shrinkers run (this module's and
    [Rmt_sim.Sim_shrink]'s): move to the first of [candidates x] that
    satisfies [keep], and repeat until none does or [budget] [keep]
    evaluations are spent.  Deterministic when [keep] is; terminates when
    every candidate is strictly smaller than its origin. *)

val minimize :
  ?budget:int ->
  keep:(Instance.t -> Program.t -> bool) ->
  Instance.t ->
  Program.t ->
  Instance.t * Program.t
(** Fixpoint of the moves above; [budget] defaults to 400 evaluations.
    The result satisfies [keep] whenever the input did. *)

val keep_verdict :
  Campaign.protocol ->
  x_dealer:int ->
  verdict:Campaign.verdict ->
  Instance.t ->
  Program.t ->
  bool
(** The standard predicate: the corruption stays admissible and
    non-empty, and re-executing the program passes
    {!Campaign.reproduces} for [verdict]. *)
