(** The indistinguishability attacks behind the necessity proofs
    (Theorem 3, Theorem 8, Figure 2).

    Given a cut witness [C = C₁ ∪ C₂], two runs are co-simulated:

    - run [e]: the real instance [(G, 𝒵, γ, D, R)], dealer value [x₀],
      corruption set [C₁ ∈ 𝒵]; every corrupted player sends exactly what
      its {e honest} twin sends in run [e'];
    - run [e']: the forged instance [(G, 𝒵', γ, D, R)] with
      [𝒵' = 𝒵 ∪ ↓{C₂}], dealer value [x₁ ≠ x₀], corruption set [C₂ ∈ 𝒵'];
      corrupted players mirror their honest twins of run [e].

    Players on the receiver side [B] have identical initial knowledge in
    both instances ([𝒵'_u = 𝒵_u] for [u ∈ B] — this is exactly what the
    cut conditions guarantee) and identical views of every execution
    round, so the receiver's decision must be the same in both runs while
    the dealer's value differs: a protocol that decides in run [e] is
    unsafe, and a safe protocol must stay undecided.

    The pair is one product automaton run by {!Rmt_net.Engine.run}
    (C₁ ∩ C₂ = ∅, so every player is honest in some run): a player keeps
    a state per run where it is honest, and tags each send for run [e],
    run [e'], or both when it replays its honest twin's sends.  So each
    side is stepped as [Engine.run] steps it (in round 1, then whenever
    its run delivers it a message), the pair shares the engine's round
    budget and 2,000,000-message cap (a message of both runs counted
    once; a capped pair is [truncated]), and an honest send to a
    non-neighbor raises [Invalid_argument]. *)

open Rmt_base
open Rmt_graph
open Rmt_knowledge
open Rmt_net

type verdict = {
  decision_e : int option;  (** receiver's decision in run [e] *)
  decision_e' : int option;
  views_agree : bool;
      (** the receiver decided identically in both runs (it must, if the
          construction is correct and the protocol deterministic) *)
  safety_broken : bool;
      (** the receiver decided on the same value in both runs — since the
          dealer's values differ, the decision is wrong in one of them *)
  observed : (int * (int option * int option)) list;
      (** decisions in [e] and [e'] of every player honest in both runs,
          in node order; those in the shielded component [B] must agree
          across the runs — their entire views coincide *)
  truncated : bool;
      (** the message cap stopped the pair: missing decisions prove
          nothing *)
}

val co_simulate :
  graph:Graph.t -> c1:Nodeset.t -> c2:Nodeset.t ->
  ('s, 'm) Engine.automaton -> ('s, 'm) Engine.automaton ->
  receiver:int -> verdict
(** [co_simulate ~graph ~c1 ~c2 auto_e auto_e' ~receiver] runs the paired
    execution.  [c1] and [c2] must be disjoint node sets of [graph]
    excluding [receiver], a node of [graph].
    @raise Invalid_argument otherwise. *)

val forged_structure : Instance.t -> Nodeset.t -> Instance.t
(** [forged_structure inst c2] is the instance with
    [𝒵' = 𝒵 ∪ ↓{c2}] — the structure the [B]-side cannot tell from [𝒵]
    when [c2] satisfies the cut's second condition. *)

val against_rmt_pka : Instance.t -> Cut.witness -> x0:int -> x1:int -> verdict
(** Mounts the two-face attack on RMT-PKA using an RMT-cut witness. *)

val against_zcpa : Instance.t -> Cut.witness -> x0:int -> x1:int -> verdict
(** Same against 𝒵-CPA (with the direct oracle built per instance — the
    forged run must consult the forged structure). *)
