(** Deterministic simulation of the synchronous engine's protocols under
    adversarial schedulers.

    {!run} is {!Rmt_net.Transport.run}, the loop {!Rmt_net.Engine.run}
    also runs, driven by a delivery {!Policy}: every scheduled message
    gets a global sequence number (send order) and the policy decides
    its fate — drop, delay, ordering key, duplication.
    Virtual time is the round counter; a message sent at round [r] with
    delay [d] joins its destination's round-[r+d] inbox, and each inbox
    is sorted by [(key, seq)].

    Two properties are load-bearing (and pinned in [test/sim]):

    - {b Sync-equivalence}: under {!Policy.sync} the outcome — stats,
      decisions, decision rounds, delivery trace — is bit-identical to
      [Engine.run] on the same inputs: both run one loop, and the sync
      policy returns the engine's constant decision.

    - {b Determinism}: outcomes are a pure function of (automaton,
      adversary, policy decisions).  Replaying a recorded
      {!Schedule} through {!Policy.of_schedule} reproduces the run
      bit for bit; nothing depends on hash-table iteration order.

    The default round limit is the engine's [(4n+8)] scaled by
    {!Policy.bound}, so bounded delays cannot masquerade as liveness
    failures; truncation accounting counts all queued (undelivered)
    messages against [max_messages]. *)

open Rmt_graph
open Rmt_net

val run :
  ?max_rounds:int ->
  ?max_messages:int ->
  ?size_of:('m -> int) ->
  ?stop_when:((int -> int option) -> bool) ->
  ?on_deliver:(round:int -> src:int -> dst:int -> 'm -> unit) ->
  policy:Policy.t ->
  graph:Graph.t ->
  adversary:'m Engine.strategy ->
  ('s, 'm) Engine.automaton ->
  ('s, 'm) Engine.outcome
(** See {!Rmt_net.Engine.run} for the shared parameters; [policy] is
    consulted once per scheduled message and must be fresh for this run
    (see {!Policy}).  Raises [Invalid_argument] exactly where the engine
    does: a corrupted set outside the graph, or an honest send to a
    non-neighbor. *)
