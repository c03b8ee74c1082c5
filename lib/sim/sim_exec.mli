(** Running attack programs on the simulator — {!Sim.run} as a
    {!Rmt_attack.Campaign} backend, recorded runs, and reproducer pairs.

    A violation found under an adversarial schedule ships as a
    {e reproducer pair}: the fuzz reproducer [.rmt] file (instance +
    attack program + expected verdict) next to a [.sched] file (the
    shrunk schedule).
    [FILE.rmt] always pairs with [FILE.sched]. *)

open Rmt_knowledge
open Rmt_attack

val runner : policy:Policy.t -> Campaign.runner
(** The simulator as a campaign backend: pass it as
    [Campaign.execute ~runner] (or [execute_traced]).  The policy is
    consumed by the single run the runner performs — build a fresh one
    per execution. *)

val execute_recorded :
  params:Policy.params ->
  sched_seed:int ->
  Campaign.protocol ->
  Instance.t ->
  x_dealer:int ->
  Rmt_attack.Program.t ->
  Campaign.run_report * Schedule.t
(** One run under a fresh seeded random policy, with recording: returns
    the report plus the replayable schedule of every non-synchronous
    decision taken.  Deterministic in (params, sched_seed, protocol,
    instance, x_dealer, program). *)

val replay : Replay.t -> Schedule.t -> Campaign.run_report * string
(** Replay a reproducer pair: the [.rmt] run under the [.sched]
    schedule.  Bit-identical to the recorded execution. *)

val sched_path_of : string -> string
(** [sched_path_of "x/y.rmt"] is ["x/y.sched"]. *)

val write_pair :
  rmt:string -> Replay.t -> Schedule.t -> (string, string) result
(** Writes the [.rmt] file and its sibling [.sched]; returns the
    schedule path. *)

val load_pair : rmt:string -> (Replay.t * Schedule.t, string) result
