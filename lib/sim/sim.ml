open Rmt_net

(* The simulator is the one round loop (Transport.run) driven by the
   delivery policy: the policy decides each message's fate and its bound
   stretches the default round budget.  Everything else — registration,
   the activation rule, decision bookkeeping, truncation — is the code
   the engine runs, which is what the sync-equivalence suite in test/sim
   pins. *)

let run ?max_rounds ?max_messages ?size_of ?stop_when ?on_deliver ~policy
    ~graph ~adversary automaton =
  Transport.run ~who:"Sim.run" ~bound:(Policy.bound policy)
    ~decide:(Policy.decide policy) ?max_rounds ?max_messages ?size_of
    ?stop_when ?on_deliver ~graph ~adversary automaton
