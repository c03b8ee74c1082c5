(** Reproducer files — a failing run, frozen.

    A replay file is the {!Rmt_knowledge.Codec} instance text interleaved
    with the attack-program lines ({!Program.to_lines}) and three campaign
    metadata lines:

    {v
    protocol pka             # pka | ppa | zcpa | strawman
                             #     | cert-pka | cert-ppa
    value 7                  # the dealer's input
    expect silenced          # recorded verdict: delivered | silenced
                             #                 | violated <x>
    v}

    Everything needed to re-run the attack deterministically lives in the
    file (the program embeds its seed), so a reproducer checked into a bug
    report replays bit-for-bit: [replay] re-executes and returns the fresh
    verdict next to the recorded one, plus the rendered delivery trace. *)

open Rmt_knowledge

type t = {
  protocol : Campaign.protocol;
  x_dealer : int;
  instance : Instance.t;
  program : Program.t;
  expected : Campaign.verdict option;  (** verdict recorded at capture *)
}

val make :
  ?expected:Campaign.verdict ->
  protocol:Campaign.protocol ->
  x_dealer:int ->
  Instance.t ->
  Program.t ->
  t

val to_string : t -> (string, string) result
(** [Error _] when the instance's view is custom (not serializable). *)

val of_string : string -> (t, string) result
(** [Error _] also when an [attack-node] id is negative or not a node of
    the instance graph. *)

val to_file : string -> t -> (unit, string) result
val of_file : string -> (t, string) result

val replay : t -> Campaign.run_report * string
(** Re-execute; returns the run report and the rendered trace.  The run
    is deterministic, so a reproducer's verdict matches [expected] unless
    the protocol implementation changed underneath it. *)

val verdict_matches : t -> Campaign.run_report -> bool
(** True when [expected] is unset or equals the replayed verdict. *)
