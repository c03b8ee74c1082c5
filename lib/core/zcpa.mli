(** 𝒵-CPA adapted for RMT (Section 4.1) — the unique safe protocol for the
    ad hoc model.

    The dealer sends its value to its neighbors and terminates.  A player
    adjacent to the dealer decides on the value received from the dealer;
    any other player decides on [x] once it has received [x] from a set of
    neighbors [N ⊆ 𝒩(v)] with [N ∉ 𝒵_v]; on deciding, a player forwards
    the value to its neighbors (the receiver just outputs it) and
    terminates.

    𝒵-CPA is a {e protocol scheme} (Definition 8): the membership check
    [N ∉ 𝒵_v] is a black-box subroutine.  [automaton] therefore takes the
    subroutine as a value of type {!oracle}; {!direct_oracle} answers from
    the instance's explicit local structures, while
    {!Self_reduction.simulated_oracle} answers by simulating an RMT
    protocol on basic instances (Theorem 9). *)

open Rmt_base
open Rmt_knowledge
open Rmt_net

type oracle = v:int -> Nodeset.t -> bool
(** [oracle ~v n] must return [true] iff [n ∉ 𝒵_v] — i.e. the senders set
    [n] cannot be entirely corrupted, so a common value from it is
    certified. *)

val direct_oracle : Instance.t -> oracle
(** Answers membership from the instance's local structure
    [𝒵_v = 𝒵^{V(γ(v))}] (in the ad hoc model, [𝒵] restricted to
    [𝒩(v) ∪ {v}]). *)

val counting_oracle : oracle -> int ref * oracle
(** Wraps an oracle, counting invocations (the scheme's subroutine-call
    complexity; experiment E6). *)

type decider = v:int -> (int * Nodeset.t) list -> int option
(** The rule-2 subroutine in its most general form: given the current
    partition of heard-from neighbors into value classes
    [(x, senders-of-x)], return the certified value, if any.  Theorem 9's
    simulation-based decision protocol has exactly this shape: it
    identifies the unique class [A_h ∉ 𝒵_v] rather than answering
    isolated membership queries. *)

val decider_of_oracle : oracle -> decider
(** The textbook rule 2: the first value (in ascending order) whose
    sender set passes the membership check. *)

type state

val automaton :
  ?forward_all:bool ->
  decider:decider -> Instance.t -> x_dealer:int -> (state, int) Engine.automaton
(** Messages are bare values [x ∈ X].  With [forward_all] (default
    [false]) the receiver also forwards on deciding — rule 3 of the
    {e original broadcast} 𝒵-CPA, needed when every player's decision
    matters ({!Broadcast}); the RMT adaptation has the receiver output
    and terminate without relaying. *)

val decision : state -> int option

val run :
  ?oracle:oracle ->
  ?decider:decider ->
  ?adversary:int Engine.strategy ->
  Instance.t ->
  x_dealer:int ->
  Engine.result
(** Runs 𝒵-CPA on the instance.  [decider] takes precedence over
    [oracle]; the default is [direct_oracle].  To count oracle calls,
    pass an oracle wrapped by {!counting_oracle}. *)
