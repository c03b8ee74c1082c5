(** The round loop every execution runs on.

    The paper's protocols are round-based automata over authenticated
    channels.  This module pins their vocabulary — automata, adversary
    strategies, outcomes — and {!run}, the one loop that executes them.
    The loop consults a per-message {!decision} for every send on an
    existing channel, so the synchronous model and a message adversary
    differ only in the decisions passed in:

    - {!Engine.run}: the constant {!sync_decision}, the paper's model;
    - [Rmt_sim.Sim.run]: [Policy.decide], which may drop, delay,
      reorder and duplicate deliveries.

    The contract {!run} implements:

    - {b Node registration}: the player set is the graph's node set;
      the corrupted set must be a subset of it ([Invalid_argument]
      otherwise).
    - {b Delivery}: every send gets a global sequence number (honest
      players in node order, then corrupted ones, each player's sends in
      emission order).  A message sent at round [r] with delay [d] joins
      its destination's round-[r+d] inbox; each inbox is ordered by
      [(key, seq)], so all-zero keys give the send-ordered FIFO of
      synchronous rounds.
    - {b Decision contract}: [bound >= 1], and every delivered (not
      dropped) decision has [delay] and [dup] in [1..bound] and
      [key >= 0]; {!run} raises [Invalid_argument] otherwise.
    - {b Send batching}: sends are buffered during a round and
      exchanged only at the round boundary; no mid-round delivery.
    - {b Trace hooks}: [on_deliver] fires once per delivered message,
      grouped by destination in node order (honest first), before that
      destination's [step] observes the message. *)

open Rmt_base
open Rmt_graph

(** {1 Shared vocabulary}

    These are the canonical definitions; {!Engine} re-exports them
    under its historical name so existing code keeps compiling. *)

type 'm send = { dst : int; payload : 'm }

type ('s, 'm) automaton = {
  init : int -> 's * 'm send list;
  step : int -> 's -> round:int -> inbox:(int * 'm) list -> 's * 'm send list;
  decision : 's -> int option;
}

type 'm strategy = {
  corrupted : Nodeset.t;
  act : int -> round:int -> inbox:(int * 'm) list -> 'm send list;
}

val no_adversary : 'm strategy

type stats = {
  rounds : int;
  messages : int;
  bits : int;
  per_round : int array;
  truncated : bool;
}

type ('s, 'm) outcome = {
  stats : stats;
  decisions : (int * int) list;
  decision_rounds : (int * int) list;
  states : (int * 's) list;
}

type 'm deliver_hook = round:int -> src:int -> dst:int -> 'm -> unit
(** The trace hook; see {!Rmt_net.Trace}. *)

(** {1 Delivery decisions} *)

type decision = {
  drop : bool;  (** suppress the message entirely *)
  delay : int;  (** rounds in flight; 1 is the synchronous next round *)
  key : int;
      (** per-inbox ordering key: inboxes sort by [(key, seq)], so 0
          everywhere is FIFO in send order *)
  dup : int option;
      (** also deliver a copy [e] rounds after the first delivery *)
}

val sync_decision : decision
(** [{drop = false; delay = 1; key = 0; dup = None}] — what the
    synchronous model does to every message. *)

(** {1 The loop} *)

val run :
  who:string ->
  bound:int ->
  decide:(seq:int -> round:int -> src:int -> dst:int -> decision) ->
  ?max_rounds:int ->
  ?max_messages:int ->
  ?size_of:('m -> int) ->
  ?stop_when:((int -> int option) -> bool) ->
  ?on_deliver:'m deliver_hook ->
  graph:Graph.t ->
  adversary:'m strategy ->
  ('s, 'm) automaton ->
  ('s, 'm) outcome
(** Executes rounds until [stop_when] (given the current decision map,
    which answers [None] for any id that is not an honest player) holds,
    [max_rounds] elapses (default [(4 * num_nodes) + 8], scaled by
    [bound]), the run is
    quiescent (nothing queued and no corrupted node), or the delivered
    plus queued messages exceed [max_messages] (default 2,000,000; the
    outcome is then marked truncated).

    [decide] is called once per send on an existing channel, in
    sequence-number order.  [bound] is the largest delay it may return
    and the largest duplicate gap: a decision that is not dropped must
    have [1 <= delay <= bound], [key >= 0] and, if [dup = Some e],
    [1 <= e <= bound].  Honest sends to non-neighbors raise
    [Invalid_argument] prefixed by [who]; adversarial ones are dropped
    before they get a sequence number.  @raise Invalid_argument also
    ([who]-prefixed) when [bound < 1], when a decision breaks the
    contract above, or when a corrupted node id is not a node of the
    graph. *)
