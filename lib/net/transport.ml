(* The one round loop.

   Engine.run (synchronous rounds) and Sim.run (rounds under a message
   adversary) are thin fronts over [run]: they differ only in the
   per-message delivery decision they pass in, so registration, the
   activation rule, decision bookkeeping and truncation accounting are
   written exactly once, and the sync-equivalence suite in test/sim
   pins the two fronts against each other. *)

open Rmt_base
open Rmt_graph

(* ------------------------------------------------------------------ *)
(* The shared vocabulary                                               *)
(* ------------------------------------------------------------------ *)

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

let no_adversary =
  { corrupted = Nodeset.empty; act = (fun _ ~round:_ ~inbox:_ -> []) }

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

type decision = {
  drop : bool;
  delay : int;
  key : int;
  dup : int option;
}

let sync_decision = { drop = false; delay = 1; key = 0; dup = None }

(* ------------------------------------------------------------------ *)
(* Ledger — per-run decision and statistics bookkeeping                *)
(* ------------------------------------------------------------------ *)

module Ledger = struct
  (* [states] and [decision_rounds] are indexed by node id, like the
     loop's inbox buffers; [states] is allocated at the first state
     set, and a round of -1 means "not decided yet". *)
  type 's t = {
    mutable states : 's array;
    decision_rounds : int array;
    mutable messages : int;
    mutable bits : int;
    mutable per_round_rev : int list;
    mutable truncated : bool;
    honest : Nodeset.t;
    decision : 's -> int option;
  }

  let create ~slots ~honest ~decision =
    {
      states = [||];
      decision_rounds = Array.make slots (-1);
      messages = 0;
      bits = 0;
      per_round_rev = [];
      truncated = false;
      honest;
      decision;
    }

  let set_state t v st =
    if Array.length t.states = 0 then
      t.states <- Array.make (Array.length t.decision_rounds) st;
    t.states.(v) <- st

  (* only honest players have a state; any other id answers [None] *)
  let decision_map t v =
    if Nodeset.mem v t.honest then t.decision t.states.(v) else None

  (* record [round] as the first-decision round of every honest player
     that has decided and was not already noted *)
  let note_decisions t round =
    Nodeset.iter
      (fun v ->
        if t.decision_rounds.(v) < 0 then
          match t.decision t.states.(v) with
          | Some _ -> t.decision_rounds.(v) <- round
          | None -> ())
      t.honest

  let count_round t ~delivered ~bits =
    t.messages <- t.messages + delivered;
    t.bits <- t.bits + bits;
    t.per_round_rev <- delivered :: t.per_round_rev

  let finalize t ~rounds =
    let per_node f =
      Nodeset.fold
        (fun v acc -> match f v with Some x -> (v, x) :: acc | None -> acc)
        t.honest []
      |> List.rev
    in
    {
      stats =
        {
          rounds;
          messages = t.messages;
          bits = t.bits;
          per_round = Array.of_list (List.rev t.per_round_rev);
          truncated = t.truncated;
        };
      decisions = per_node (decision_map t);
      decision_rounds =
        per_node (fun v ->
            let r = t.decision_rounds.(v) in
            if r < 0 then None else Some r);
      states = per_node (fun v -> Some t.states.(v));
    }
end

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(* A scheduled delivery.  Duplicate copies share one entry. *)
type 'm entry = { key : int; dst : int; msg : int * 'm }

let by_key a b = Int.compare a.key b.key

(* The decision contract: a delivered message is due 1..bound rounds
   after its send, its duplicate 1..bound rounds after that, and its
   key is >= 0, so the due ring below never wraps onto a live bucket. *)
let breach ~who ~bound s what v =
  invalid_arg
    (Printf.sprintf "%s: message %d has %s %d outside the contract (bound %d)"
       who s what v bound)

let check_decision ~who ~bound s d =
  if d.delay < 1 || d.delay > bound then breach ~who ~bound s "delay" d.delay;
  if d.key < 0 then breach ~who ~bound s "key" d.key;
  match d.dup with
  | Some e when e < 1 || e > bound -> breach ~who ~bound s "dup" e
  | _ -> ()

let run ~who ~bound ~decide ?max_rounds ?(max_messages = 2_000_000)
    ?(size_of = fun _ -> 1) ?(stop_when = fun _ -> false) ?on_deliver ~graph
    ~adversary automaton =
  if bound < 1 then invalid_arg (who ^ ": bound must be >= 1");
  let nodes = Graph.nodes graph in
  let corrupted = adversary.corrupted in
  if not (Nodeset.subset corrupted nodes) then
    invalid_arg (who ^ ": corrupted set outside the graph");
  let honest = Nodeset.diff nodes corrupted in
  let max_rounds =
    match max_rounds with
    | Some r -> r
    | None ->
      (* stretched by the worst-case delay so a delayed run can still
         converge *)
      ((4 * Graph.num_nodes graph) + 8) * bound
  in
  (* per-destination buffers, indexed by node id like the graph's own
     adjacency array: key-0 messages go straight into [inbox_buf],
     keyed entries wait in [keyed_buf] *)
  let slots = Option.fold ~none:0 ~some:succ (Nodeset.max_elt_opt nodes) in
  let ledger = Ledger.create ~slots ~honest ~decision:automaton.decision in
  let inbox_buf = Array.make slots [] in
  let keyed_buf = Array.make slots [] in
  (* due-round ring: a delivery is due at most [delay + dup <= 2 * bound]
     rounds ahead, so bucket [r mod (2 * bound + 1)] holds exactly the
     entries due at round [r], in reverse scheduling order *)
  let ring = Array.make ((2 * bound) + 1) [] in
  let pending = ref 0 and seq = ref 0 in
  let schedule_at t entry =
    let i = t mod Array.length ring in
    ring.(i) <- entry :: ring.(i);
    incr pending
  in
  let rec enqueue ~is_honest ~round src = function
    | [] -> ()
    | { dst; payload } :: rest ->
      if Graph.mem_edge src dst graph then begin
        let s = !seq in
        incr seq;
        let d = decide ~seq:s ~round ~src ~dst in
        if not d.drop then begin
          check_decision ~who ~bound s d;
          let e = { key = d.key; dst; msg = (src, payload) } in
          schedule_at (round + d.delay) e;
          match d.dup with
          | Some extra -> schedule_at (round + d.delay + extra) e
          | None -> ()
        end
      end
      else if is_honest then
        invalid_arg
          (Printf.sprintf "%s: honest node %d sent to non-neighbor %d" who
             src dst);
      enqueue ~is_honest ~round src rest
  in
  (* Reverse scheduling order in, scheduling order out.  A bucket filled
     in scheduling order is in [seq] order (a duplicate copy never shares
     a round with its original), so each destination's key-0 messages
     arrive in [seq] order and a stable sort of its keyed entries by
     [key] alone, appended after them, yields the (key, seq) order. *)
  let rec drain delivered bits = function
    | [] ->
      pending := !pending - delivered;
      Ledger.count_round ledger ~delivered ~bits
    | e :: rest ->
      let v = e.dst in
      if e.key = 0 then inbox_buf.(v) <- e.msg :: inbox_buf.(v)
      else keyed_buf.(v) <- e :: keyed_buf.(v);
      drain (delivered + 1) (bits + size_of (snd e.msg)) rest
  in
  let take_inbox ~round v =
    let l = inbox_buf.(v) in
    inbox_buf.(v) <- [];
    let inbox =
      match keyed_buf.(v) with
      | [] -> l
      | k ->
        keyed_buf.(v) <- [];
        l @ List.map (fun e -> e.msg) (List.stable_sort by_key k)
    in
    (match on_deliver with
     | None -> ()
     | Some f -> List.iter (fun (src, p) -> f ~round ~src ~dst:v p) inbox);
    inbox
  in
  (* round 0: initialization *)
  Nodeset.iter
    (fun v ->
      let st, sends = automaton.init v in
      Ledger.set_state ledger v st;
      enqueue ~is_honest:true ~round:0 v sends)
    honest;
  Nodeset.iter
    (fun v ->
      enqueue ~is_honest:false ~round:0 v (adversary.act v ~round:0 ~inbox:[]))
    corrupted;
  Ledger.note_decisions ledger 0;
  Ledger.count_round ledger ~delivered:0 ~bits:0;
  let rounds = ref 1 in
  let decision_map v = Ledger.decision_map ledger v in
  (* With an active adversary we cannot infer quiescence from an empty
     queue: a corrupted node may stay silent and inject messages later.
     In that case run until [stop_when] or [max_rounds]. *)
  let live () = !pending > 0 || not (Nodeset.is_empty corrupted) in
  let continue = ref (live () && not (stop_when decision_map)) in
  while !continue && !rounds <= max_rounds && not ledger.truncated do
    if ledger.messages + !pending > max_messages then ledger.truncated <- true
    else begin
      let round = !rounds in
      let i = round mod Array.length ring in
      drain 0 0 ring.(i);
      ring.(i) <- [];
      Nodeset.iter
        (fun v ->
          match take_inbox ~round v with
          | [] when round <> 1 -> ()
          | inbox ->
            let st, sends = automaton.step v ledger.states.(v) ~round ~inbox in
            Ledger.set_state ledger v st;
            enqueue ~is_honest:true ~round v sends)
        honest;
      Nodeset.iter
        (fun v ->
          let inbox = take_inbox ~round v in
          enqueue ~is_honest:false ~round v (adversary.act v ~round ~inbox))
        corrupted;
      Ledger.note_decisions ledger round;
      incr rounds;
      continue := live () && not (stop_when decision_map)
    end
  done;
  Ledger.finalize ledger ~rounds:!rounds
