open Rmt_base
open Rmt_graph
open Rmt_net
open Rmt_attack

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list

(* A tiny flooding automaton over int messages: node 0 originates its
   value, everyone adopts the first value heard and forwards it once. *)
type gossip = {
  mutable value : int option;
  mutable forwarded : bool;
}

let gossip_automaton g ~origin ~value =
  let broadcast = Flood.broadcast g in
  let init v =
    if v = origin then ({ value = Some value; forwarded = true }, broadcast v value)
    else ({ value = None; forwarded = false }, [])
  in
  let step v st ~round:_ ~inbox =
    match (st.value, inbox) with
    | None, (_, x) :: _ ->
      st.value <- Some x;
      st.forwarded <- true;
      (st, broadcast v x)
    | _ -> (st, [])
  in
  let decision st = st.value in
  Engine.{ init; step; decision }

let test_flooding_delivery () =
  let g = Generators.path_graph 5 in
  let outcome =
    Engine.run ~graph:g ~adversary:Engine.no_adversary
      (gossip_automaton g ~origin:0 ~value:7)
  in
  check_int "everyone decided" 5 (List.length outcome.decisions);
  check "all sevens" true (List.for_all (fun (_, x) -> x = 7) outcome.decisions);
  (* hop distance = decision round *)
  Alcotest.(check (option int)) "node 4 at round 4" (Some 4)
    (List.assoc_opt 4 outcome.decision_rounds);
  check_int "messages: each non-origin forwards once along the path" 8
    outcome.stats.messages

let test_synchrony () =
  (* messages sent in round r arrive in round r+1, never earlier *)
  let g = Generators.path_graph 3 in
  let outcome =
    Engine.run ~graph:g ~adversary:Engine.no_adversary
      (gossip_automaton g ~origin:0 ~value:1)
  in
  Alcotest.(check (option int)) "direct neighbor round 1" (Some 1)
    (List.assoc_opt 1 outcome.decision_rounds);
  Alcotest.(check (option int)) "two hops round 2" (Some 2)
    (List.assoc_opt 2 outcome.decision_rounds)

let test_honest_non_neighbor_send_rejected () =
  let g = Generators.path_graph 3 in
  let bad =
    Engine.
      {
        init = (fun v -> ((), if v = 0 then [ { dst = 2; payload = 1 } ] else []));
        step = (fun _ st ~round:_ ~inbox:_ -> (st, []));
        decision = (fun _ -> None);
      }
  in
  check "raises" true
    (try
       ignore (Engine.run ~graph:g ~adversary:Engine.no_adversary bad);
       false
     with Invalid_argument _ -> true)

let test_adversary_non_neighbor_send_dropped () =
  let g = Generators.path_graph 3 in
  let adv =
    Engine.
      {
        corrupted = ns [ 0 ];
        act =
          (fun _ ~round ~inbox:_ ->
            if round = 0 then [ { dst = 2; payload = 9 } ] else []);
      }
  in
  let outcome =
    Engine.run ~max_rounds:3 ~graph:g ~adversary:adv
      (gossip_automaton g ~origin:1 ~value:4)
  in
  (* node 2 heard only the honest gossip *)
  Alcotest.(check (option int)) "clean delivery" (Some 4)
    (Engine.decision_of outcome 2)

let test_corrupted_outside_graph_rejected () =
  let g = Generators.path_graph 3 in
  check "raises" true
    (try
       ignore
         (Engine.run ~graph:g ~adversary:(Byzantine.silent (ns [ 9 ]))
            (gossip_automaton g ~origin:0 ~value:1));
       false
     with Invalid_argument _ -> true)

let test_stop_when () =
  let g = Generators.path_graph 6 in
  let outcome =
    Engine.run ~graph:g ~adversary:Engine.no_adversary
      ~stop_when:(fun dec -> dec 2 <> None)
      (gossip_automaton g ~origin:0 ~value:3)
  in
  check "node 2 decided" true (Engine.decision_of outcome 2 <> None);
  check "node 5 not yet" true (Engine.decision_of outcome 5 = None)

let test_max_messages_truncation () =
  (* a babbling honest protocol: everyone rebroadcasts every message *)
  let g = Generators.complete 5 in
  let babble =
    let broadcast = Flood.broadcast g in
    Engine.
      {
        init = (fun v -> ((), if v = 0 then broadcast 0 1 else []));
        step = (fun v st ~round:_ ~inbox ->
          (st, List.concat_map (fun (_, x) -> broadcast v x) inbox));
        decision = (fun _ -> None);
      }
  in
  let outcome =
    Engine.run ~max_messages:500 ~graph:g ~adversary:Engine.no_adversary babble
  in
  check "truncated" true outcome.stats.truncated;
  check "bounded" true (outcome.stats.messages <= 500)

let test_silent_adversary_blocks () =
  let g = Generators.path_graph 4 in
  let outcome =
    Engine.run ~max_rounds:10 ~graph:g
      ~adversary:(Byzantine.silent (ns [ 1 ]))
      (gossip_automaton g ~origin:0 ~value:5)
  in
  check "cut off" true (Engine.decision_of outcome 3 = None)

let test_mimic_equals_honest () =
  let g = Generators.grid 2 3 in
  let auto = gossip_automaton g ~origin:0 ~value:9 in
  let honest = Engine.run ~graph:g ~adversary:Engine.no_adversary auto in
  let mimic =
    Engine.run ~max_rounds:12 ~graph:g
      ~adversary:(Byzantine.mimic_honest (ns [ 1; 4 ]) auto)
      (gossip_automaton g ~origin:0 ~value:9)
  in
  (* honest players decide identically when the corrupted mimic honestly *)
  List.iter
    (fun (v, x) ->
      if v <> 1 && v <> 4 then
        Alcotest.(check (option int))
          (Printf.sprintf "node %d" v) (Some x)
          (Engine.decision_of mimic v))
    honest.decisions

(* An attack program compiled against the strawman: first-delivery
   gossip, the same protocol as [gossip_automaton] above. *)
let compiled g ~origin ~value nodes =
  let inst =
    Rmt_knowledge.Instance.ad_hoc_of ~graph:g
      ~structure:(Rmt_adversary.Builders.global_threshold g ~dealer:origin 1)
      ~dealer:origin
      ~receiver:(Graph.num_nodes g - 1)
  in
  Strategy_gen.compile_strawman (Program.make ~seed:0 nodes) inst
    ~x_dealer:value

let test_crash_after () =
  let g = Generators.path_graph 4 in
  let crash k =
    compiled g ~origin:0 ~value:2
      [ { Program.node = 1; base = Program.Crash_after k; injects = [] } ]
  in
  (* node 1 crashes before it can forward (it would forward in round 1) *)
  let outcome =
    Engine.run ~max_rounds:10 ~graph:g ~adversary:(crash 0)
      (gossip_automaton g ~origin:0 ~value:2)
  in
  check "blocked" true (Engine.decision_of outcome 3 = None);
  (* crashing later lets the value through *)
  let outcome2 =
    Engine.run ~max_rounds:10 ~graph:g ~adversary:(crash 5)
      (gossip_automaton g ~origin:0 ~value:2)
  in
  Alcotest.(check (option int)) "delivered" (Some 2)
    (Engine.decision_of outcome2 3)

let test_per_node_dispatch () =
  (* one program, a different behavior per corrupted node: node 1 relays
     a flipped value, node 4 stays silent *)
  let g = Generators.path_graph 6 in
  let adv =
    compiled g ~origin:0 ~value:7
      [
        {
          Program.node = 1;
          base = Program.Honest;
          injects = [ Program.Flip_value 42 ];
        };
        { Program.node = 4; base = Program.Silent; injects = [] };
      ]
  in
  let outcome =
    Engine.run ~max_rounds:10 ~graph:g ~adversary:adv
      (gossip_automaton g ~origin:0 ~value:7)
  in
  (* node 3 adopts node 1's forgery; node 5 hears nothing through node 4 *)
  Alcotest.(check (option int)) "forged" (Some 42) (Engine.decision_of outcome 3);
  Alcotest.(check (option int)) "blocked" None (Engine.decision_of outcome 5)

let test_stats_per_round () =
  let g = Generators.path_graph 3 in
  let outcome =
    Engine.run ~graph:g ~adversary:Engine.no_adversary
      (gossip_automaton g ~origin:0 ~value:1)
  in
  check "round 0 sends nothing delivered" true (outcome.stats.per_round.(0) = 0);
  check_int "round 1 delivers origin's send" 1 outcome.stats.per_round.(1);
  check "bits counted" true (outcome.stats.bits = outcome.stats.messages)

let test_engine_deterministic () =
  (* identical runs produce identical outcomes — the foundation of the
     co-simulation argument and of experiment reproducibility *)
  let g = Generators.grid 3 3 in
  let run () =
    let outcome =
      Engine.run ~graph:g ~adversary:(Byzantine.silent (ns [ 4 ]))
        (gossip_automaton g ~origin:0 ~value:5)
    in
    (outcome.decisions, outcome.decision_rounds, outcome.stats.messages)
  in
  let a = run () and b = run () in
  check "identical outcomes" true (a = b)

let test_trace_records () =
  let g = Generators.path_graph 4 in
  let trace, on_deliver =
    Rmt_net.Trace.create ~pp_payload:string_of_int ()
  in
  let outcome =
    Engine.run ~on_deliver ~graph:g ~adversary:Engine.no_adversary
      (gossip_automaton g ~origin:0 ~value:9)
  in
  check_int "all deliveries traced" outcome.stats.messages
    (Rmt_net.Trace.num_deliveries trace);
  let rendered = Rmt_net.Trace.render trace in
  check "mentions round 1" true (String.length rendered > 0);
  let elided = Rmt_net.Trace.render ~max_lines:2 trace in
  check "elision marker" true
    (String.length elided < String.length rendered)

(* ------------------------------------------------------------------ *)
(* Transport.run's decision contract                                   *)
(* ------------------------------------------------------------------ *)

(* One edge 0 - 1; node 0 sends one message at round 0 and node 1
   decides on the first value it hears. *)
let one_edge = Graph.of_edges [ (0, 1) ]

let one_send =
  Engine.
    {
      init =
        (fun v -> (None, if v = 0 then [ { dst = 1; payload = 5 } ] else []));
      step =
        (fun _ st ~round:_ ~inbox ->
          match (st, inbox) with
          | None, (_, x) :: _ -> (Some x, [])
          | _ -> (st, []));
      decision = Fun.id;
    }

let probe ~bound d =
  Transport.run ~who:"Probe" ~bound
    ~decide:(fun ~seq:_ ~round:_ ~src:_ ~dst:_ -> d)
    ~graph:one_edge ~adversary:Engine.no_adversary one_send

let test_decision_contract () =
  let d ?(delay = 1) ?(key = 0) ?dup () =
    { Transport.drop = false; delay; key; dup }
  in
  let rejected label ~bound dec =
    match probe ~bound dec with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument m ->
      check (label ^ ": who-prefixed") true
        (String.starts_with ~prefix:"Probe: " m)
  in
  rejected "bound 0" ~bound:0 Transport.sync_decision;
  rejected "delay 0 (used to strand the message)" ~bound:1 (d ~delay:0 ());
  rejected "delay 5 under bound 1" ~bound:1 (d ~delay:5 ());
  rejected "key -3" ~bound:1 (d ~key:(-3) ());
  rejected "dup 0" ~bound:2 (d ~dup:0 ());
  rejected "dup 3 under bound 2" ~bound:2 (d ~dup:3 ());
  (* the edges of the contract are accepted: the first copy lands at
     round [delay], the duplicate [dup] rounds later, whatever the key *)
  let o = probe ~bound:2 (d ~delay:2 ~key:max_int ~dup:2 ()) in
  Alcotest.(check (list (pair int int))) "decided at round 2" [ (1, 2) ]
    o.decision_rounds;
  check_int "both copies delivered" 2 o.stats.messages;
  Alcotest.(check (list int)) "per round" [ 0; 0; 1; 0; 1 ]
    (Array.to_list o.stats.per_round);
  (* a dropped message's other fields are never read *)
  let o = probe ~bound:1 { (d ~delay:0 ~key:(-1) ()) with drop = true } in
  check_int "dropped" 0 o.stats.messages

(* stop_when's decision map: only honest players answer *)
let test_stop_when_map () =
  let g = Generators.path_graph 3 in
  let seen = ref [] in
  let outcome =
    Engine.run ~max_rounds:4 ~graph:g ~adversary:(Byzantine.silent (ns [ 2 ]))
      ~stop_when:(fun dec ->
        seen := List.map dec [ -1; 0; 1; 2; 3; 99 ] :: !seen;
        false)
      (gossip_automaton g ~origin:0 ~value:6)
  in
  check_int "node 1 decided" 1 (List.length (List.tl outcome.decisions));
  List.iter
    (fun row ->
      Alcotest.(check (list (option int))) "None off the honest set"
        [ None; Some 6; List.nth row 2; None; None; None ] row)
    !seen;
  check "node 1 seen deciding" true
    (List.exists (fun row -> List.nth row 2 = Some 6) !seen)

(* ------------------------------------------------------------------ *)
(* Flood                                                               *)
(* ------------------------------------------------------------------ *)

let test_trail_ok () =
  check "valid" true (Flood.trail_ok ~self:3 ~src:2 [ 0; 1; 2 ]);
  check "self in trail" false (Flood.trail_ok ~self:1 ~src:2 [ 0; 1; 2 ]);
  check "wrong tail" false (Flood.trail_ok ~self:3 ~src:1 [ 0; 1; 2 ]);
  check "non-simple" false (Flood.trail_ok ~self:3 ~src:2 [ 0; 2; 0; 2 ]);
  check "empty trail" false (Flood.trail_ok ~self:3 ~src:2 [])

let test_flood_relay () =
  let g = Generators.path_graph 4 in
  let inbox = [ (1, Flood.{ payload = "x"; trail = [ 0; 1 ] }) ] in
  let sends = Flood.relay g 2 ~inbox in
  check_int "forwards to both neighbors" 2 (List.length sends);
  List.iter
    (fun Engine.{ payload; _ } ->
      Alcotest.(check (list int)) "extended trail" [ 0; 1; 2 ] payload.Flood.trail)
    sends;
  (* bad trail dropped *)
  let bad = [ (1, Flood.{ payload = "x"; trail = [ 0 ] }) ] in
  check_int "dropped" 0 (List.length (Flood.relay g 2 ~inbox:bad))

let test_flood_originate () =
  let g = Generators.star 4 in
  let sends = Flood.originate g 0 "hello" in
  check_int "to all leaves" 3 (List.length sends);
  List.iter
    (fun Engine.{ payload; _ } ->
      Alcotest.(check (list int)) "own trail" [ 0 ] payload.Flood.trail)
    sends

let () =
  Alcotest.run "rmt_net"
    [
      ( "engine",
        [
          Alcotest.test_case "flooding delivery" `Quick test_flooding_delivery;
          Alcotest.test_case "synchrony" `Quick test_synchrony;
          Alcotest.test_case "honest channel check" `Quick
            test_honest_non_neighbor_send_rejected;
          Alcotest.test_case "adversary channel drop" `Quick
            test_adversary_non_neighbor_send_dropped;
          Alcotest.test_case "corrupted id check" `Quick
            test_corrupted_outside_graph_rejected;
          Alcotest.test_case "stop_when" `Quick test_stop_when;
          Alcotest.test_case "max_messages" `Quick test_max_messages_truncation;
          Alcotest.test_case "stats per round" `Quick test_stats_per_round;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "trace" `Quick test_trace_records;
          Alcotest.test_case "decision contract" `Quick test_decision_contract;
          Alcotest.test_case "stop_when decision map" `Quick test_stop_when_map;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "silent blocks" `Quick test_silent_adversary_blocks;
          Alcotest.test_case "mimic = honest" `Quick test_mimic_equals_honest;
          Alcotest.test_case "crash_after" `Quick test_crash_after;
          Alcotest.test_case "per-node dispatch" `Quick test_per_node_dispatch;
        ] );
      ( "flood",
        [
          Alcotest.test_case "trail_ok" `Quick test_trail_ok;
          Alcotest.test_case "relay" `Quick test_flood_relay;
          Alcotest.test_case "originate" `Quick test_flood_originate;
        ] );
    ]
