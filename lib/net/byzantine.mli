(** Protocol-agnostic Byzantine building blocks: silence and honest
    mimicry.

    Every other behavior — crashing, dropping, altering relayed values,
    forging trails and reports, inventing nodes — is an attack program
    ([Rmt_attack.Program]) compiled over {!mimic_honest} by
    [Rmt_attack.Strategy_gen]. *)

open Rmt_base

type 'm t = 'm Engine.strategy

val silent : Nodeset.t -> 'm t
(** Corrupted players never send anything. *)

val mimic_honest : Nodeset.t -> ('s, 'm) Engine.automaton -> 'm t
(** Corrupted players run the honest protocol faithfully (the weakest
    admissible behavior; useful as a baseline and for two-run
    constructions where one side is honest-in-the-other-run).

    {b Single-run value:} the mimicked protocol state lives inside the
    strategy, so a value built with this (or any compiled attack program
    built over it) must be used for exactly one {!Engine.run}; build a
    fresh strategy per run.  Reuse is detected — a second run's round 0
    finding leftover state — and
    @raise Invalid_argument rather than silently replaying stale
    protocol state from the previous run. *)
