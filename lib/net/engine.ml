open Rmt_base

(* The shared vocabulary and the round loop live in Transport; Engine
   re-exports the vocabulary under the historical names and runs the
   loop with the synchronous decision for every message. *)

type 'm send = 'm Transport.send = { dst : int; payload : 'm }

type ('s, 'm) automaton = ('s, 'm) Transport.automaton = {
  init : int -> 's * 'm send list;
  step : int -> 's -> round:int -> inbox:(int * 'm) list -> 's * 'm send list;
  decision : 's -> int option;
}

type 'm strategy = 'm Transport.strategy = {
  corrupted : Nodeset.t;
  act : int -> round:int -> inbox:(int * 'm) list -> 'm send list;
}

let no_adversary = Transport.no_adversary

type stats = Transport.stats = {
  rounds : int;
  messages : int;
  bits : int;
  per_round : int array;
  truncated : bool;
}

type ('s, 'm) outcome = ('s, 'm) Transport.outcome = {
  stats : stats;
  decisions : (int * int) list;
  decision_rounds : (int * int) list;
  states : (int * 's) list;
}

let decision_of outcome v = List.assoc_opt v outcome.decisions

let sync ~seq:_ ~round:_ ~src:_ ~dst:_ = Transport.sync_decision

let run ?max_rounds ?max_messages ?size_of ?stop_when ?on_deliver ~graph
    ~adversary automaton =
  Transport.run ~who:"Engine.run" ~bound:1 ~decide:sync
    ?max_rounds ?max_messages ?size_of ?stop_when ?on_deliver ~graph
    ~adversary automaton

type result = {
  decided : int option;
  correct : bool;
  rounds : int;
  messages : int;
  bits : int;
  truncated : bool;
}

let result_of ~receiver ~x_dealer outcome =
  let decided = decision_of outcome receiver in
  {
    decided;
    correct = decided = Some x_dealer;
    rounds = outcome.stats.rounds;
    messages = outcome.stats.messages;
    bits = outcome.stats.bits;
    truncated = outcome.stats.truncated;
  }
