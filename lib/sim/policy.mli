(** Per-channel delivery policies — the message adversary.

    A policy is the scheduler's oracle: {!Sim.run} consults it once per
    scheduled message (in deterministic global send order) and obeys the
    returned {!Schedule.decision}.  Policies are single-run values: the
    random one consumes its PRNG and the recording wrapper accumulates
    entries, so build a fresh policy per execution (the same discipline
    as {!Rmt_net.Byzantine.mimic_honest} strategies). *)

open Rmt_base

type t

val bound : t -> int
(** Maximum delay the policy can emit; {!Sim.run} scales its default
    round limit by it. *)

val decide :
  t -> seq:int -> round:int -> src:int -> dst:int -> Schedule.decision

val sync : t
(** Delay 1, FIFO keys, no duplication, no drops: the scheduler under
    which {!Sim.run} reproduces {!Rmt_net.Engine.run} bit for bit. *)

type params = {
  delay_bound : int;  (** maximum delivery delay, >= 1 *)
  p_late : float;  (** probability of a delay drawn from [2..delay_bound] *)
  p_reorder : float;  (** probability of a non-FIFO ordering key *)
  key_bound : int;  (** keys are drawn from [1..key_bound] *)
  p_dup : float;  (** probability of a duplicated delivery *)
  p_drop : float;  (** per-message drop probability while budget lasts *)
  drop_budget : int;  (** total drops allowed — bounded message loss *)
}

val default_params : params
(** The full message adversary: bounded delays, reordering, duplication,
    and bounded loss.  Schedules drawn from it can defeat RMT-PKA —
    delaying or dropping one honest report hides the evidence that
    vetoes a forged trail (see the pinned reproducers in
    [test/sim/fixtures]).  Those are the paper's synchrony and
    reliable-channel assumptions at work, not protocol bugs; sweep
    {!timely_params} for the schedule space where Theorem 4's safety is
    scheduler-independent. *)

val lossless_params : params
(** {!default_params} with message loss disabled: deliveries may be
    late, reordered, and duplicated, but every message arrives.  Still
    asynchronous enough to defeat RMT-PKA in rare schedules (one honest
    report delayed past the receiver's decision round acts like an
    omission), so exploration territory, not a property space. *)

val timely_params : params
(** Every message's {e first} copy arrives on the synchronous timetable
    (delay 1, no loss); the scheduler may still permute each inbox and
    inject late duplicate copies.  Under these schedules the receiver's
    cumulative evidence per round is exactly the synchronous engine's,
    so Theorem 4's safety carries over — the schedule space swept by the
    pinned scheduler-independence property and by [make sim-smoke]. *)

val random : Prng.t -> params -> t
(** A seeded adversarial scheduler.  Deterministic in the PRNG state and
    the (deterministic) order of {!decide} calls.  Raises
    [Invalid_argument] if [delay_bound] is outside
    [1..Schedule.max_bound] or [key_bound < 0]. *)

val of_schedule : Schedule.t -> t
(** Replay: recorded entries verbatim, {!Schedule.sync_decision} for
    every other message.  Entry lookup is pre-hashed. *)

val record : t -> t * (unit -> Schedule.t)
(** [record p] is a policy that behaves exactly like [p] plus a freeze
    function returning the schedule of all non-synchronous decisions
    taken so far — the reproducer for the run just observed. *)
