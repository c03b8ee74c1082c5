open Rmt_base
open Rmt_graph
open Rmt_net
open Rmt_attack

(* mimic_honest, and every attack program compiled over it, carries the
   mimicked protocol state inside the strategy value, so each value is
   good for exactly one Engine.run.  These properties pin the
   documented contract: the first run works, a second run with the
   same value raises Invalid_argument instead of silently replaying
   stale state. *)

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

(* the same tiny flooding automaton as test_net.ml *)
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

(* a random scenario: a path of n nodes, a corrupted interior node, and
   a per-combinator parameter seed *)
let arb_scenario =
  QCheck.make
    ~print:(fun (n, c, seed) -> Printf.sprintf "n=%d corrupted=%d seed=%d" n c seed)
    QCheck.Gen.(
      int_range 3 7 >>= fun n ->
      int_range 1 (n - 2) >>= fun c ->
      int_bound 1_000_000 >>= fun seed -> return (n, c, seed))

let run_with g adversary auto = Engine.run ~max_rounds:12 ~graph:g ~adversary auto

let single_run_guard name make_strategy =
  QCheck.Test.make ~count:50
    ~name:(name ^ ": second run with the same strategy raises")
    arb_scenario
    (fun (n, c, seed) ->
      let g = Generators.path_graph n in
      let auto = gossip_automaton g ~origin:0 ~value:7 in
      let adv = make_strategy g auto ~corrupted:(ns [ c ]) ~seed in
      ignore (run_with g adv auto);
      try
        ignore (run_with g adv auto);
        false
      with Invalid_argument _ -> true)

let guard_mimic =
  single_run_guard "mimic_honest" (fun _g auto ~corrupted ~seed:_ ->
      Byzantine.mimic_honest corrupted auto)

(* An attack program compiled against the strawman: first-delivery
   gossip, the same protocol as [gossip_automaton] above. *)
let compiled g ~corrupted ~seed base injects =
  let inst =
    Rmt_knowledge.Instance.ad_hoc_of ~graph:g
      ~structure:(Rmt_adversary.Builders.global_threshold g ~dealer:0 1)
      ~dealer:0
      ~receiver:(Graph.num_nodes g - 1)
  in
  Strategy_gen.compile_strawman
    (Program.uniform ~seed corrupted base injects)
    inst ~x_dealer:7

let crash_after g ~corrupted ~seed =
  compiled g ~corrupted ~seed (Program.Crash_after (seed mod 4)) []

let drop_randomly g ~corrupted ~seed =
  compiled g ~corrupted ~seed (Program.Drop 0.5) []

(* honest relaying with every send rewritten *)
let transform g ~corrupted ~seed =
  compiled g ~corrupted ~seed Program.Honest [ Program.Flip_value 8 ]

let guard_crash_after =
  single_run_guard "crash_after" (fun g _auto ~corrupted ~seed ->
      crash_after g ~corrupted ~seed)

let guard_drop_randomly =
  single_run_guard "drop_randomly" (fun g _auto ~corrupted ~seed ->
      drop_randomly g ~corrupted ~seed)

let guard_transform =
  single_run_guard "transform" (fun g _auto ~corrupted ~seed ->
      transform g ~corrupted ~seed)

(* fresh values keep working: the guard fires on reuse, not on the
   strategy itself *)
let fresh_strategies_fine =
  QCheck.Test.make ~count:50 ~name:"a fresh strategy per run never raises"
    arb_scenario
    (fun (n, c, seed) ->
      let g = Generators.path_graph n in
      let auto = gossip_automaton g ~origin:0 ~value:7 in
      let run adv = ignore (run_with g adv auto) in
      let corrupted = ns [ c ] in
      run (Byzantine.mimic_honest corrupted auto);
      run (crash_after g ~corrupted ~seed);
      run (drop_randomly g ~corrupted ~seed);
      run (transform g ~corrupted ~seed);
      true)

let test_stateless_strategies_reusable () =
  (* silent and a hand-written stateless strategy hold no protocol
     state, so reuse is legal *)
  let g = Generators.path_graph 4 in
  let auto = gossip_automaton g ~origin:0 ~value:3 in
  let silent = Byzantine.silent (ns [ 2 ]) in
  ignore (run_with g silent auto);
  ignore (run_with g silent auto);
  let forward =
    Engine.{ corrupted = ns [ 2 ]; act = (fun _ ~round:_ ~inbox:_ -> []) }
  in
  ignore (run_with g forward auto);
  ignore (run_with g forward auto);
  check "reusable" true true

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "byzantine"
    [
      ( "single-run guard",
        [
          qt guard_mimic;
          qt guard_crash_after;
          qt guard_drop_randomly;
          qt guard_transform;
          qt fresh_strategies_fine;
        ] );
      ( "stateless",
        [
          Alcotest.test_case "silent and stateless reusable" `Quick
            test_stateless_strategies_reusable;
        ] );
    ]
