(** Synchronous message-passing engine.

    The model of the paper: a synchronous network of players connected by
    undirected {e authenticated} channels.  A round consists of every
    player sending messages to neighbors; messages sent in round [r] are
    delivered at the start of round [r+1], tagged with the true sender
    (authentication).  A Byzantine adversary controls a fixed corruption
    set and replaces those players' behavior arbitrarily — but it cannot
    forge the sender id on a channel and cannot send over non-existent
    channels.

    The engine is polymorphic in the message type ['m] and the per-node
    protocol state ['s].

    [run] is {!Transport.run} with {!Transport.sync_decision} for every
    message; the shared vocabulary below is defined in {!Transport} and
    re-exported here under its historical names. *)

open Rmt_base
open Rmt_graph

type 'm send = 'm Transport.send = { dst : int; payload : 'm }

type ('s, 'm) automaton = ('s, 'm) Transport.automaton = {
  init : int -> 's * 'm send list;
      (** [init v]: initial state and round-0 sends of player [v]. *)
  step :
    int -> 's -> round:int -> inbox:(int * 'm) list -> 's * 'm send list;
      (** [step v st ~round ~inbox]: one round of player [v]; the inbox
          holds [(sender, message)] pairs delivered this round. *)
  decision : 's -> int option;
      (** Decided value, if any.  Must be stable: once [Some x], a correct
          protocol never changes it. *)
}

type 'm strategy = 'm Transport.strategy = {
  corrupted : Nodeset.t;
  act : int -> round:int -> inbox:(int * 'm) list -> 'm send list;
      (** Behavior of a corrupted player.  Round 0 is the initial round
          (empty inbox).  Sends to non-neighbors are dropped silently —
          channels are fixed by the topology. *)
}

val no_adversary : 'm strategy

type stats = Transport.stats = {
  rounds : int;  (** rounds executed (including round 0) *)
  messages : int;  (** messages delivered in total *)
  bits : int;  (** sum of [size_of] over delivered messages *)
  per_round : int array;  (** deliveries per round *)
  truncated : bool;
      (** true when the run stopped because [max_messages] was exceeded —
          path-flooding protocols are exponential in the worst case, and a
          truncated run must never be mistaken for a completed one *)
}

type ('s, 'm) outcome = ('s, 'm) Transport.outcome = {
  stats : stats;
  decisions : (int * int) list;  (** honest players' decided values *)
  decision_rounds : (int * int) list;
      (** round at which each deciding player first decided *)
  states : (int * 's) list;  (** final states of honest players *)
}

val decision_of : ('s, 'm) outcome -> int -> int option
(** Decided value of a given (honest) player in the outcome. *)

val run :
  ?max_rounds:int ->
  ?max_messages:int ->
  ?size_of:('m -> int) ->
  ?stop_when:((int -> int option) -> bool) ->
  ?on_deliver:(round:int -> src:int -> dst:int -> 'm -> unit) ->
  graph:Graph.t ->
  adversary:'m strategy ->
  ('s, 'm) automaton ->
  ('s, 'm) outcome
(** Executes rounds until [stop_when] (given the current decision map)
    returns true, [max_rounds] (default [4 * num_nodes + 8]) elapses, or —
    only when there is no corrupted node, since a Byzantine node may
    inject messages after arbitrary silence — the network is quiescent
    (no messages in flight).

    Honest sends to non-neighbors raise [Invalid_argument] — a protocol
    bug; adversarial ones are dropped.  @raise Invalid_argument also when
    a corrupted node id is not a node of the graph. *)

(** {1 One run, seen from the receiver} *)

type result = {
  decided : int option;  (** the receiver's output *)
  correct : bool;  (** [decided = Some x_dealer] *)
  rounds : int;
  messages : int;
  bits : int;  (** [stats.bits]: [messages] when the run had no [size_of] *)
  truncated : bool;  (** [stats.truncated] *)
}
(** What the protocol modules' [run] helpers return. *)

val result_of : receiver:int -> x_dealer:int -> ('s, 'm) outcome -> result
(** The receiver's decision, checked against [x_dealer], and the run's
    stats. *)
