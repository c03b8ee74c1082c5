(** The solvability frontier — which envelopes a certified protocol
    survives.

    The certified tier ({!Rmt_protocols.Certified}) claims safety for
    every schedule inside its declared {!Rmt_protocols.Envelope} and
    nothing beyond it.  This experiment walks a grid of scheduler
    strengths (delay bound × drop budget), runs a seeded {!Sweep} at
    each point (fanned over [Parsweep] like every campaign), and
    reports the verdict counts: inside the envelope the [violated]
    column must be zero, and the point where violations first appear
    traces the empirical frontier next to the declared one.

    Deterministic in (seed, grid) and independent of the
    domain count — the rendered table is goldenable. *)

open Rmt_knowledge
open Rmt_attack

type point = {
  delay_bound : int;  (** the scheduler's maximum delivery delay, >= 1 *)
  drop_budget : int;  (** total messages the scheduler may drop *)
}

type row = {
  point : point;
  in_envelope : bool;
      (** every schedule drawn at this point conforms to the declared
          envelope ({!Envelope_check.params_within}) *)
  schedules : int;
  delivered : int;
  silenced : int;
  violated : int;
  liveness_lost : int;
}

val default_grid : point list
(** An escalating diagonal through (delay, drops) space crossing
    {!Rmt_protocols.Envelope.default} — three points inside, two out. *)

val run :
  ?domains:int ->
  seed:int ->
  Campaign.protocol ->
  Instance.t ->
  point list ->
  row list
(** One {!Sweep.run} per grid point, 60 trials each with dealer value 7
    and fake value 8, classifying each point against
    {!Rmt_protocols.Envelope.default}.  Each point's schedules are drawn
    from {!Policy.default_params} with the point's delay bound and drop
    budget and {e aggressive} exploration probabilities (lateness 0.6,
    loss 0.4) — envelope conformance constrains delay and drops only,
    so harsh probabilities sharpen both sides of the frontier.  Loss
    and lateness are switched off when the point's budget (resp. delay
    headroom) is zero, so the point's schedule space is exactly what it
    advertises. *)

val to_table : row list -> string
(** Fixed-width rendering, one line per row — the pinned-golden and
    EXPERIMENTS.md format. *)
