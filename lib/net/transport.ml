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
  type 's t = {
    states : (int, 's) Hashtbl.t;
    decision_rounds : (int, int) Hashtbl.t;
    mutable messages : int;
    mutable bits : int;
    mutable per_round_rev : int list;
    mutable truncated : bool;
    honest : Nodeset.t;
    decision : 's -> int option;
  }

  let create ~honest ~decision =
    {
      states = Hashtbl.create 16;
      decision_rounds = Hashtbl.create 16;
      messages = 0;
      bits = 0;
      per_round_rev = [];
      truncated = false;
      honest;
      decision;
    }

  let set_state t v st = Hashtbl.replace t.states v st
  let state t v = Hashtbl.find t.states v

  let decision_map t v =
    match Hashtbl.find_opt t.states v with
    | None -> None
    | Some st -> t.decision st

  (* record [round] as the first-decision round of every honest player
     that has decided and was not already noted *)
  let note_decisions t round =
    Nodeset.iter
      (fun v ->
        if not (Hashtbl.mem t.decision_rounds v) then
          match t.decision (state t v) with
          | Some _ -> Hashtbl.replace t.decision_rounds v round
          | None -> ())
      t.honest

  let count_round t ~delivered ~bits =
    t.messages <- t.messages + delivered;
    t.bits <- t.bits + bits;
    t.per_round_rev <- delivered :: t.per_round_rev

  let finalize t ~rounds =
    let decisions =
      Nodeset.fold
        (fun v acc ->
          match decision_map t v with Some x -> (v, x) :: acc | None -> acc)
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
      decisions;
      decision_rounds =
        Hashtbl.fold (fun v r acc -> (v, r) :: acc) t.decision_rounds []
        |> List.sort (fun (v1, r1) (v2, r2) ->
               let c = Int.compare v1 v2 in
               if c <> 0 then c else Int.compare r1 r2);
      states =
        Nodeset.fold (fun v acc -> (v, state t v) :: acc) t.honest []
        |> List.rev;
    }
end

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(* A scheduled delivery.  Duplicate copies share one entry. *)
type 'm entry = { key : int; dst : int; msg : int * 'm }

let by_key a b = Int.compare a.key b.key

let run ~who ~bound ~decide ?max_rounds ?(max_messages = 2_000_000)
    ?(size_of = fun _ -> 1) ?(stop_when = fun _ -> false)
    ?(on_deliver = fun ~round:_ ~src:_ ~dst:_ _ -> ()) ~graph ~adversary
    automaton =
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
  let ledger = Ledger.create ~honest ~decision:automaton.decision in
  (* per-destination inbox buffers, indexed by node id like the graph's
     own adjacency array *)
  let slots =
    match Nodeset.max_elt_opt nodes with Some m -> m + 1 | None -> 0
  in
  let inbox_buf = Array.make slots [] in
  let keyed = Array.make slots false in
  (* due-round queue: round -> entries in reverse scheduling order.
     Most sends of a round share one due round, so the last bucket
     touched is kept at hand; it is forgotten when its round is
     drained. *)
  let due = Hashtbl.create 16 in
  let last_due = ref (-1) and last_bucket = ref (ref []) in
  let pending = ref 0 in
  let seq = ref 0 in
  let schedule_at t entry =
    if t <> !last_due then begin
      last_bucket :=
        (match Hashtbl.find_opt due t with
         | Some l -> l
         | None ->
           let l = ref [] in
           Hashtbl.add due t l;
           l);
      last_due := t
    end;
    !last_bucket := entry :: !(!last_bucket);
    incr pending
  in
  let enqueue ~is_honest ~round src sends =
    List.iter
      (fun { dst; payload } ->
        if Graph.mem_edge src dst graph then begin
          let s = !seq in
          incr seq;
          let d = decide ~seq:s ~round ~src ~dst in
          if not d.drop then begin
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
               src dst))
      sends
  in
  (* A bucket filled in scheduling order is in [seq] order (a duplicate
     copy never shares a round with its original), so a stable sort by
     [key] alone yields the (key, seq) order, and only inboxes holding a
     non-zero key need sorting at all. *)
  let take_inbox v =
    let l = inbox_buf.(v) in
    inbox_buf.(v) <- [];
    let l =
      if keyed.(v) then begin
        keyed.(v) <- false;
        List.stable_sort by_key l
      end
      else l
    in
    List.map (fun e -> e.msg) l
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
      let delivered = ref 0 and bits = ref 0 in
      (match Hashtbl.find_opt due round with
       | None -> ()
       | Some l ->
         Hashtbl.remove due round;
         last_due := -1;
         (* reverse scheduling order in, scheduling order out *)
         List.iter
           (fun e ->
             incr delivered;
             bits := !bits + size_of (snd e.msg);
             inbox_buf.(e.dst) <- e :: inbox_buf.(e.dst);
             if e.key <> 0 then keyed.(e.dst) <- true)
           !l);
      pending := !pending - !delivered;
      Ledger.count_round ledger ~delivered:!delivered ~bits:!bits;
      Nodeset.iter
        (fun v ->
          let inbox = take_inbox v in
          List.iter (fun (src, p) -> on_deliver ~round ~src ~dst:v p) inbox;
          if inbox <> [] || round = 1 then begin
            let st, sends =
              automaton.step v (Ledger.state ledger v) ~round ~inbox
            in
            Ledger.set_state ledger v st;
            enqueue ~is_honest:true ~round v sends
          end)
        honest;
      Nodeset.iter
        (fun v ->
          let inbox = take_inbox v in
          List.iter (fun (src, p) -> on_deliver ~round ~src ~dst:v p) inbox;
          enqueue ~is_honest:false ~round v (adversary.act v ~round ~inbox))
        corrupted;
      Ledger.note_decisions ledger round;
      incr rounds;
      continue := live () && not (stop_when decision_map)
    end
  done;
  Ledger.finalize ledger ~rounds:!rounds
