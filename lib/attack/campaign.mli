(** Fuzzing campaigns — fan attack programs across a protocol, classify
    every run against the paper's safety/liveness claims.

    A campaign draws seeded random programs ({!Strategy_gen.random}) —
    or, for the fixed E2 {!battery}, walks the labelled menu programs —
    executes each against the chosen protocol on the instance, and sorts
    the outcomes into a three-point classification lattice:

    {v
            Safety_violation        (wrong decision — refutes Theorem 4)
                   |
            Liveness_lost           (no decision on a solvable instance
                   |                 under an admissible corruption)
                  Safe              (correct decision, or silence that
                                     the theory permits)
    v}

    Silence is only an attack success when the instance is solvable, the
    corruption admissible, and no budget was exhausted; on unsolvable
    instances silence is the {e required} behavior, and such runs are
    reported as cut-exploiting [silenced] outcomes rather than failures.
    A wrong decision is a safety violation whenever the corruption set is
    admissible (Theorem 4 promises safety against exactly those). *)

open Rmt_base
open Rmt_core
open Rmt_knowledge

type protocol =
  | Pka
  | Ppa
  | Zcpa
  | Strawman
      (** {!Rmt_protocols.Naive.first_delivery}, the deliberately
          order-sensitive receiver: safe under the synchronous engine's
          send-ordered inboxes, violable by any scheduler that reorders
          one channel.  The simulation campaign's control protocol; not
          part of the default fuzzing sweeps. *)
  | Cert_pka
      (** {!Rmt_protocols.Certified.pka} under the default
          {!Rmt_protocols.Envelope}: RMT-PKA behind the quorum/commit
          certification gate, safe over lossy/asynchronous schedules
          within the envelope. *)
  | Cert_ppa  (** {!Rmt_protocols.Certified.ppa}, likewise. *)
  | Zcpa_sim
      (** Z-CPA deciding through Theorem 9's
          {!Rmt_core.Self_reduction.simulated_decider} instead of a
          membership oracle; attacked like Z-CPA.  Not part of the default
          fuzzing sweeps. *)

val protocols : protocol list
(** Every protocol, in declaration order. *)

val protocol_to_string : protocol -> string
val protocol_of_string : string -> (protocol, string) result

type verdict =
  | Delivered  (** receiver decided on the dealer's value *)
  | Silenced  (** receiver reached the round limit undecided *)
  | Violated of int  (** receiver decided on a wrong value *)

val verdict_to_string : verdict -> string

val verdict_equal : verdict -> verdict -> bool
(** Constructor (and violated-value) equality; use instead of
    polymorphic [=] (rmt-lint R1). *)

type run_report = {
  program : Program.t;
  verdict : verdict;
  rounds : int;
  messages : int;
  truncated : bool;  (** a message or search budget was exhausted *)
}

type classification = Safe | Liveness_lost | Safety_violation

val classification_to_string : classification -> string

val solvability : protocol -> Instance.t -> Solvability.feasibility
(** The protocol-appropriate decider: RMT-cut for PKA, the strawman and
    cert-pka; PPA's full-knowledge condition for PPA and cert-ppa; 𝒵-pp
    cut for Z-CPA and zcpa-sim. *)

val menu :
  protocol ->
  Rmt_graph.Graph.t ->
  x_fake:int ->
  Nodeset.t ->
  (string * Program.t) list
(** The protocol's labelled attack menu: {!Strategy_gen.value_menu} for
    the bare-value protocols (Z-CPA, zcpa-sim and the strawman),
    {!Strategy_gen.pka_menu} for the rest.  {!battery_programs} and
    [rmt run --strategy] read it. *)

val classify :
  solvability:Solvability.feasibility ->
  admissible:bool ->
  run_report ->
  classification

val reproduces : verdict:verdict -> run_report -> bool
(** The shrinkers' acceptance test: the run ends with the same verdict
    {e constructor} as [verdict] (any wrong value matches [Violated _]),
    and — for a [Silenced] target — no budget was exhausted (silence
    must be the attack's doing, not the search giving up). *)

type runner = {
  run :
    's 'm.
    ?max_messages:int ->
    ?size_of:('m -> int) ->
    ?stop_when:((int -> int option) -> bool) ->
    ?on_deliver:(round:int -> src:int -> dst:int -> 'm -> unit) ->
    graph:Rmt_graph.Graph.t ->
    adversary:'m Rmt_net.Engine.strategy ->
    ('s, 'm) Rmt_net.Engine.automaton ->
    ('s, 'm) Rmt_net.Engine.outcome;
}
(** An execution backend with {!Rmt_net.Engine.run}'s interface — the
    one backend abstraction.  The polymorphic field lets one value serve
    every protocol's message type, so other runtimes (the simulator's
    [Sim_exec.runner], or a wrapper that observes a run) plug into
    {!execute} unchanged. *)

val engine_runner : runner
(** The synchronous engine itself — the default backend. *)

val execute :
  ?runner:runner ->
  protocol ->
  Instance.t ->
  x_dealer:int ->
  Program.t ->
  run_report
(** Compile the program against the protocol and run it once on
    [runner] (default {!engine_runner}).  Every protocol goes through the
    same body, driven by a private per-protocol table (automaton,
    injection vocabulary, message-size and stop options, receiver
    truncation probe, trace printer, solvability decider, attack
    menu).  The body builds the automaton once and hands it both to
    [runner], for the honest nodes, and to {!Strategy_gen.compile}, for
    the corrupted nodes that mimic them.
    Deterministic in (program, instance, [x_dealer], runner). *)

val execute_traced :
  ?runner:runner ->
  protocol ->
  Instance.t ->
  x_dealer:int ->
  Program.t ->
  run_report * string
(** Same run, additionally rendering the delivery timeline with
    {!Rmt_net.Trace.render}.  The verdict is identical to {!execute}'s —
    tracing only observes. *)

(** {1 Trial loops}

    A campaign, a schedule sweep ([Rmt_sim.Sweep]) and the fixed battery
    are the same loop: draw a batch of trials from one seeded PRNG,
    execute them through {!Rmt_workloads.Parsweep.map}, classify and
    tally.  They differ in how a trial is drawn and executed, and in the
    witness kept with each safety violation: nothing for an engine
    campaign, the recorded schedule for a sweep, the menu label for the
    battery. *)

type 'w report = {
  protocol : protocol;
  seed : int;
  trials : int;  (** trials actually executed *)
  solvability : Solvability.feasibility;
  delivered : int;
  silenced : int;
  violated : int;
  truncated : int;
  liveness_lost : int;
  safety_violations : (run_report * 'w) list;
      (** each with the witness its execution returned *)
  silenced_examples : run_report list;
      (** first few non-truncated silencings by non-empty programs —
          on unsolvable instances these witness the cut *)
  max_rounds_seen : int;
  total_messages : int;
  stopped_early : bool;  (** [should_stop] fired before [trials] runs *)
}

val run_trials :
  ?domains:int ->
  ?should_stop:(unit -> bool) ->
  draw:(Prng.t -> 'a) ->
  exec:('a -> run_report * 'w) ->
  solvability:Solvability.feasibility ->
  seed:int ->
  trials:int ->
  protocol ->
  Instance.t ->
  'w report
(** Up to [trials] trials: batches of 16 are drawn
    sequentially with [draw] from the PRNG seeded with [seed], then
    executed with [exec] through {!Rmt_workloads.Parsweep.map};
    [should_stop] is polled between batches, so a time budget overshoots
    by at most one batch.  [solvability] is the instance's feasibility
    for the protocol (see {!solvability}); it is copied into the report
    and decides which silenced runs count as [liveness_lost].
    Deterministic in (seed, trials, draw, exec), independent of
    [domains]. *)

val run :
  ?domains:int ->
  ?should_stop:(unit -> bool) ->
  ?x_dealer:int ->
  ?x_fake:int ->
  seed:int ->
  attacks:int ->
  protocol ->
  Instance.t ->
  unit report
(** A campaign: {!run_trials} over [attacks] programs from
    {!Strategy_gen.random}, each run once with {!execute} on the
    engine. *)

val battery_programs :
  protocol -> Instance.t -> x_fake:int -> (string * Program.t) list
(** The fixed E2 battery, labelled: the honest run (the empty program,
    ["honest"]), then for every maximal corruption set of the instance
    that avoids the receiver, every entry of the protocol's {!menu}. *)

val battery :
  protocol -> Instance.t -> x_dealer:int -> x_fake:int -> string report
(** {!run_trials} over {!battery_programs}, each run once with
    {!execute} on the engine; every safety violation carries its menu
    label.  The empirical side of Theorem 4 and of the tightness
    experiments: [violated = 0] is safety, [delivered = trials] is
    resilience against everything the menu throws.  Runs on one domain,
    since callers already fan instances out over {!Rmt_workloads.Parsweep}.
    The battery does not run a cut decider: the report's [solvability] is
    [Unknown] and [liveness_lost] is 0, and callers that need the
    feasibility (the tightness sweeps) decide it themselves. *)

val pp_trials :
  title:string -> count:string -> Format.formatter -> 'w report -> unit
(** [pp_trials ~title ~count] prints ["<protocol> <title>: seed=..
    <count>=.."] and the tallies. *)

val pp_report : Format.formatter -> unit report -> unit
(** [pp_trials ~title:"campaign" ~count:"attacks"]. *)
