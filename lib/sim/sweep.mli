(** Schedule sweeps — fuzzing the scheduler.

    The simulation counterpart of {!Rmt_attack.Campaign.run}: each trial
    draws a random attack program {e and} a random delivery schedule
    (via a recorded {!Policy.random}), runs them together on {!Sim.run},
    and classifies the outcome against the paper's claims.  Theorem 4's
    safety guarantee does not depend on synchrony, so a safety violation
    under {e any} schedule refutes it just as a synchronous one would —
    and ships with the recorded schedule for replay.  Liveness is
    different: delays and bounded drops can legitimately starve a
    receiver that the synchronous engine would have served, so
    [liveness_lost] counts are expected to be non-zero under aggressive
    parameters and are reported, not failed, by the sweep's callers. *)

open Rmt_knowledge
open Rmt_attack

type report = Schedule.t Campaign.report
(** Each safety violation comes with the recorded (unshrunk) schedule
    that produced it. *)

val run :
  ?domains:int ->
  ?should_stop:(unit -> bool) ->
  ?x_dealer:int ->
  ?x_fake:int ->
  ?params:Policy.params ->
  seed:int ->
  schedules:int ->
  Campaign.protocol ->
  Instance.t ->
  report
(** Up to [schedules] (program, schedule) trials drawn from [seed] —
    {!Campaign.run_trials} with a program and a schedule seed drawn per
    trial, each executed by {!Sim_exec.execute_recorded}; batches of 16,
    [should_stop] polled between batches.
    Deterministic in (seed, schedules, params), independent of
    [domains].  [params] defaults to {!Policy.timely_params} — the
    schedule space where Theorem 4's safety is scheduler-independent;
    pass {!Policy.lossless_params} or {!Policy.default_params} to
    explore delays and loss too (expect rare PKA safety violations
    there: asynchrony and loss are outside Theorem 4's model). *)

val shrink_violation :
  ?budget:int ->
  Campaign.protocol ->
  x_dealer:int ->
  Instance.t ->
  Campaign.run_report * Schedule.t ->
  Campaign.run_report * Schedule.t
(** Minimize a violation's schedule with {!Sim_shrink.minimize} (the
    program is kept fixed — its seq numbering anchors the schedule),
    then re-execute under the shrunk schedule to refresh the report. *)

val pp_report : Format.formatter -> report -> unit
(** [Campaign.pp_trials ~title:"schedule sweep" ~count:"schedules"]. *)
