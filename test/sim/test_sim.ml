(* Tests for the deterministic simulation runtime (lib/sim): schedule
   serialization, delivery policies, the two pinned properties of the
   simulator — sync-equivalence (bound-1 FIFO reproduces the synchronous
   engine bit for bit) and scheduler-independent safety (Theorem 4 holds
   under every delivery schedule) — plus schedule shrinking and the
   pinned strawman reproducer pair. *)

open Rmt_base
open Rmt_knowledge
open Rmt_attack
open Rmt_sim

let check = Alcotest.(check bool)

let instances_dir = "../../instances"

let repo_instances () =
  Sys.readdir instances_dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> Alcotest.failf "cannot load %s: %s" f e)

(* instances/ plus the certified tier's boundary instance *)
let sync_equivalence_instances () =
  repo_instances ()
  @
  match Codec.of_file "../protocols/fixtures/boundary.rmt" with
  | Ok inst -> [ ("boundary", inst) ]
  | Error e -> Alcotest.failf "cannot load boundary.rmt: %s" e

let all_protocols =
  Campaign.[ Pka; Ppa; Zcpa; Strawman; Cert_pka; Cert_ppa ]

(* ------------------------------------------------------------------ *)
(* Schedule serialization                                              *)
(* ------------------------------------------------------------------ *)

let test_schedule_golden () =
  let sched =
    Schedule.make ~bound:3
      [
        (12, { Schedule.drop = false; delay = 3; key = 0; dup = None });
        (17, { Schedule.drop = false; delay = 1; key = 2; dup = None });
        (23, Schedule.drop_decision);
        (30, { Schedule.drop = false; delay = 2; key = 1; dup = Some 1 });
      ]
  in
  Alcotest.(check string)
    "golden text"
    "# rmt schedule\n\
     sched-bound 3\n\
     sched 12 delay 3\n\
     sched 17 key 2\n\
     sched 23 drop\n\
     sched 30 delay 2 key 1 dup 1\n"
    (Schedule.to_string sched)

let test_schedule_normalization () =
  (* synchronous entries are discarded, drops canonicalized, order fixed *)
  let sched =
    Schedule.make ~bound:2
      [
        (9, Schedule.sync_decision);
        (4, { Schedule.drop = true; delay = 2; key = 3; dup = Some 1 });
        (1, { Schedule.drop = false; delay = 2; key = 0; dup = None });
      ]
  in
  check "sync entry dropped, drop canonicalized" true
    (Schedule.entries sched
    = [
        (1, { Schedule.drop = false; delay = 2; key = 0; dup = None });
        (4, Schedule.drop_decision);
      ]);
  check "decision_for defaults to sync" true
    (Schedule.decision_equal (Schedule.decision_for sched 9)
       Schedule.sync_decision);
  check "size counts non-sync weight" true (Schedule.size sched = 2);
  check "sync schedule is empty and weightless" true
    (Schedule.entries Schedule.sync = [] && Schedule.size Schedule.sync = 0)

let test_schedule_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "bound < 1" true (raises (fun () -> Schedule.make ~bound:0 []));
  check "negative seq" true
    (raises (fun () -> Schedule.make ~bound:1 [ (-1, Schedule.drop_decision) ]));
  check "delay < 1" true
    (raises (fun () ->
         Schedule.make ~bound:2
           [ (0, { Schedule.drop = false; delay = 0; key = 0; dup = None }) ]));
  check "duplicate seq" true
    (raises (fun () ->
         Schedule.make ~bound:2
           [ (3, Schedule.drop_decision); (3, Schedule.drop_decision) ]));
  check "bound above the cap" true
    (raises (fun () -> Schedule.make ~bound:(Schedule.max_bound + 1) []));
  check "delay above the bound" true
    (raises (fun () ->
         Schedule.make ~bound:2
           [ (0, { Schedule.drop = false; delay = 3; key = 0; dup = None }) ]));
  check "dup above the bound" true
    (raises (fun () ->
         Schedule.make ~bound:2
           [ (0, { Schedule.drop = false; delay = 1; key = 0; dup = Some 3 }) ]));
  check "parse error surfaces" true
    (Result.is_error (Schedule.of_string "sched nonsense\n"))

let gen_schedule st =
  let bound = 1 + QCheck.Gen.int_bound 3 st in
  let n = QCheck.Gen.int_bound 8 st in
  let seq = ref (-1) in
  let entries =
    List.init n (fun _ ->
        seq := !seq + 1 + QCheck.Gen.int_bound 4 st;
        let d =
          if QCheck.Gen.int_bound 4 st = 0 then Schedule.drop_decision
          else
            {
              Schedule.drop = false;
              delay = 1 + QCheck.Gen.int_bound (bound - 1) st;
              key = QCheck.Gen.int_bound 3 st;
              dup =
                (if QCheck.Gen.bool st then
                   Some (1 + QCheck.Gen.int_bound (bound - 1) st)
                 else None);
            }
        in
        (!seq, d))
  in
  Schedule.make ~bound entries

let arb_schedule =
  QCheck.make ~print:(fun s -> Format.asprintf "%a" Schedule.pp s) gen_schedule

let test_schedule_roundtrip_random =
  QCheck.Test.make ~count:200 ~name:"schedule to_string/of_string roundtrip"
    arb_schedule (fun s ->
      match Schedule.of_string (Schedule.to_string s) with
      | Ok s' -> Schedule.equal s s'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

let test_policy_sync () =
  for seq = 0 to 10 do
    check "sync policy decides sync" true
      (Schedule.decision_is_sync
         (Policy.decide Policy.sync ~seq ~round:(seq mod 3) ~src:0 ~dst:1))
  done;
  check "sync bound" true (Policy.bound Policy.sync = 1)

let test_policy_replay_matches_recording () =
  (* a recorded random policy and its of_schedule replay must make the
     identical decision on every sequence number *)
  let params = Policy.default_params in
  let recorded, freeze = Policy.record (Policy.random (Prng.create 11) params) in
  let decisions =
    List.init 40 (fun seq ->
        Policy.decide recorded ~seq ~round:(seq / 5) ~src:(seq mod 4)
          ~dst:((seq + 1) mod 4))
  in
  let sched = freeze () in
  let replay = Policy.of_schedule sched in
  check "replay bound matches" true (Policy.bound replay = Schedule.bound sched);
  List.iteri
    (fun seq d ->
      check
        (Printf.sprintf "decision %d replays" seq)
        true
        (Schedule.decision_equal d
           (Policy.decide replay ~seq ~round:(seq / 5) ~src:(seq mod 4)
              ~dst:((seq + 1) mod 4))))
    decisions

(* ------------------------------------------------------------------ *)
(* Inbox order against a hand-computed oracle                          *)
(* ------------------------------------------------------------------ *)

(* Star 0 - {1, 2, 3, 4}.  Each leaf v sends payload 10v + r to the hub
   in rounds 0 and 1; the hub records every inbox it steps on.  Sequence
   numbers follow send order, honest players in node order:

     round 0:  seq 0: 1->0 10   seq 1: 2->0 20   seq 2: 3->0 30   seq 3: 4->0 40
     round 1:  seq 4: 1->0 11   seq 5: 2->0 21   seq 6: 3->0 31   seq 7: 4->0 41

   The schedule delays seq 0 to round 2, duplicates seq 1 into round 2,
   delays and keys seq 2 (key 1), and keys the fresh seq 5 (key 2).  The
   hub's round-1 inbox is the unkeyed FIFO 20, 40; its round-2 inbox
   holds, as (key, seq):

     10 (0,0)  20 (0,1)  30 (1,2)  11 (0,4)  21 (2,5)  31 (0,6)  41 (0,7)

   and sorting by (key, seq) gives the order written out below. *)
let test_inbox_order_oracle () =
  let open Rmt_net.Engine in
  let graph = Rmt_graph.Graph.of_edges [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let automaton =
    {
      init =
        (fun v -> ([], if v = 0 then [] else [ { dst = 0; payload = 10 * v } ]));
      step =
        (fun v seen ~round ~inbox ->
          let seen = if v = 0 then (round, inbox) :: seen else seen in
          ( seen,
            if v <> 0 && round = 1 then [ { dst = 0; payload = (10 * v) + 1 } ]
            else [] ));
      decision = (fun _ -> None);
    }
  in
  let d ?(delay = 1) ?(order = 0) ?dup () =
    { Schedule.drop = false; delay; key = order; dup }
  in
  let sched =
    Schedule.make ~bound:2
      [
        (0, d ~delay:2 ());
        (1, d ~dup:1 ());
        (2, d ~delay:2 ~order:1 ());
        (5, d ~order:2 ());
      ]
  in
  let outcome =
    Sim.run ~policy:(Policy.of_schedule sched) ~graph ~adversary:no_adversary
      automaton
  in
  let hub = List.rev (List.assoc 0 outcome.states) in
  check "hub inboxes in (key, seq) order" true
    (hub
    = [
        (1, [ (2, 20); (4, 40) ]);
        (2, [ (1, 10); (2, 20); (1, 11); (3, 31); (4, 41); (3, 30); (2, 21) ]);
      ])

(* ------------------------------------------------------------------ *)
(* Inbox order against a reference model                               *)
(* ------------------------------------------------------------------ *)

(* Four random inputs: a small graph, a bound, a schedule under that
   bound (delays, duplicates, drops, keys up to [max_int]) and a logging
   automaton given by its send table: at round [r] (0 is [init]) node
   [v] sends payload [(r, i)] to the [i]-th destination of
   [table (v, r)], and every step logs its [(round, inbox)]. *)
type order_case = {
  graph : Rmt_graph.Graph.t;
  sched : Schedule.t;
  table : ((int * int) * int list) list;
}

let gen_order_case st =
  let open QCheck.Gen in
  let n = 2 + int_bound 4 st in
  let ids = List.init n Fun.id in
  let edges =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if j > i && ((i = 0 && j = 1) || bool st) then Some (i, j) else None)
          ids)
      ids
  in
  let graph = Rmt_graph.Graph.of_nodes_edges (Nodeset.of_list ids) edges in
  let bound = 1 + int_bound 3 st in
  let table =
    List.concat_map
      (fun v ->
        let nbrs = Nodeset.to_array (Rmt_graph.Graph.neighbors v graph) in
        let pick () = nbrs.(int_bound (Array.length nbrs - 1) st) in
        List.init 3 (fun r ->
            ( (v, r),
              if Array.length nbrs = 0 then []
              else List.init (int_bound 3 st) (fun _ -> pick ()) )))
      ids
  in
  let keys = [| 0; 0; 0; 1; 2; 3; 1 lsl 40; max_int |] in
  let upto b = 1 + int_bound (b - 1) st in
  let decision () =
    if int_bound 4 st = 0 then Schedule.drop_decision
    else
      {
        Schedule.drop = false;
        delay = upto bound;
        key = keys.(int_bound (Array.length keys - 1) st);
        dup = (if int_bound 2 st = 0 then Some (upto bound) else None);
      }
  in
  let entries =
    List.filter_map
      (fun s -> if bool st then Some (s, decision ()) else None)
      (List.init 60 Fun.id)
  in
  { graph; sched = Schedule.make ~bound entries; table }

let print_order_case c =
  Format.asprintf "%s@.%a@.sends %s"
    (Rmt_graph.Graph.to_string c.graph)
    Schedule.pp c.sched
    (String.concat "; "
       (List.map
          (fun ((v, r), ds) ->
            Printf.sprintf "%d@%d->[%s]" v r
              (String.concat "," (List.map string_of_int ds)))
          c.table))

let print_logs logs =
  let msg (src, (r, i)) = Printf.sprintf "%d:(%d,%d)" src r i in
  let step (r, inbox) =
    Printf.sprintf "r%d %s" r (String.concat " " (List.map msg inbox))
  in
  String.concat "\n"
    (List.map
       (fun (v, log) ->
         Printf.sprintf "%d: %s" v (String.concat " | " (List.map step log)))
       logs)

let dests c v r = Option.value ~default:[] (List.assoc_opt (v, r) c.table)

let logging_automaton c =
  let sends v r =
    List.mapi
      (fun i dst -> { Rmt_net.Engine.dst; payload = (r, i) })
      (dests c v r)
  in
  {
    Rmt_net.Engine.init = (fun v -> ([], sends v 0));
    step = (fun v log ~round ~inbox -> ((round, inbox) :: log, sends v round));
    decision = (fun _ -> None);
  }

(* The model: every send numbered in loop order (nodes in id order, each
   node's sends in emission order), every surviving copy due at
   [round + delay] (and [+ dup]), each round's inboxes read off the
   deliveries due that round sorted by (key, seq); rounds run while a
   copy is in flight, and a node steps at round 1 and whenever its inbox
   is non-empty. *)
let reference_logs c =
  let nodes = Nodeset.elements (Rmt_graph.Graph.nodes c.graph) in
  let queue = ref [] and seq = ref 0 in
  let logs = Array.make (List.length nodes) [] in
  let emit round v =
    List.iteri
      (fun i dst ->
        let s = !seq in
        incr seq;
        let d = Schedule.decision_for c.sched s in
        let add due = queue := (due, d.key, s, dst, (v, (round, i))) :: !queue in
        if not d.drop then begin
          add (round + d.delay);
          Option.iter (fun e -> add (round + d.delay + e)) d.dup
        end)
      (dests c v round)
  in
  List.iter (emit 0) nodes;
  let round = ref 1 in
  while !queue <> [] do
    let r = !round in
    let due, later = List.partition (fun (t, _, _, _, _) -> t = r) !queue in
    queue := later;
    let due = List.sort compare due in
    List.iter
      (fun v ->
        let inbox =
          List.filter_map
            (fun (_, _, _, dst, m) -> if dst = v then Some m else None)
            due
        in
        if inbox <> [] || r = 1 then begin
          logs.(v) <- (r, inbox) :: logs.(v);
          emit r v
        end)
      nodes;
    incr round
  done;
  List.map (fun v -> (v, logs.(v))) nodes

let test_inbox_order_model =
  QCheck.Test.make ~count:300 ~name:"inbox order = (due round, key, seq) model"
    (QCheck.make ~print:print_order_case gen_order_case)
    (fun c ->
      let outcome =
        Sim.run ~policy:(Policy.of_schedule c.sched) ~graph:c.graph
          ~adversary:Rmt_net.Engine.no_adversary (logging_automaton c)
      in
      let model = reference_logs c in
      outcome.states = model
      || QCheck.Test.fail_reportf "loop:\n%s\nmodel:\n%s"
           (print_logs outcome.states) (print_logs model))

(* ------------------------------------------------------------------ *)
(* Sync-equivalence: bound-1 FIFO simulation == synchronous engine     *)
(* ------------------------------------------------------------------ *)

(* The tentpole property, pinned over every checked-in instance, every
   protocol, and a small family of attack programs: under Policy.sync
   the simulator must reproduce the engine's verdict, statistics, and
   delivery trace byte for byte. *)
let test_sync_equivalence_pinned () =
  List.iter
    (fun (name, inst) ->
      let programs =
        Program.make ~seed:0 []
        :: List.map
             (fun s ->
               Strategy_gen.random (Prng.create s) inst ~x_dealer:7 ~x_fake:8)
             [ 1; 2; 3 ]
      in
      List.iter
        (fun protocol ->
          List.iteri
            (fun i p ->
              let label =
                Printf.sprintf "%s/%s/program %d" name
                  (Campaign.protocol_to_string protocol)
                  i
              in
              let engine_r, engine_trace =
                Campaign.execute_traced protocol inst ~x_dealer:7 p
              in
              let sim_r, sim_trace =
                Campaign.execute_traced
                  ~runner:(Sim_exec.runner ~policy:Policy.sync)
                  protocol inst ~x_dealer:7 p
              in
              check (label ^ ": identical report") true (engine_r = sim_r);
              check (label ^ ": identical trace") true
                (engine_trace = sim_trace))
            programs)
        all_protocols)
    (sync_equivalence_instances ())

(* The simulator as a campaign backend: plugged into Campaign through
   the runner record ({!Sim_exec.runner}) pinned to Policy.sync, both
   the untraced and the traced execution paths reproduce the engine.
   A fresh runner per execution, since the runner consumes its policy. *)
let test_sim_sync_backend () =
  let sync_runner () = Sim_exec.runner ~policy:Policy.sync in
  List.iter
    (fun (name, inst) ->
      let programs =
        Program.make ~seed:0 []
        :: List.map
             (fun s ->
               Strategy_gen.random (Prng.create s) inst ~x_dealer:7 ~x_fake:8)
             [ 1; 2; 3 ]
      in
      List.iter
        (fun protocol ->
          List.iteri
            (fun i p ->
              let label =
                Printf.sprintf "sim-sync/%s/%s/program %d" name
                  (Campaign.protocol_to_string protocol)
                  i
              in
              let engine_r = Campaign.execute protocol inst ~x_dealer:7 p in
              let backend_r =
                Campaign.execute ~runner:(sync_runner ()) protocol inst
                  ~x_dealer:7 p
              in
              check (label ^ ": identical untraced report") true
                (engine_r = backend_r);
              let engine_r, engine_trace =
                Campaign.execute_traced protocol inst ~x_dealer:7 p
              in
              let backend_r, backend_trace =
                Campaign.execute_traced ~runner:(sync_runner ()) protocol inst
                  ~x_dealer:7 p
              in
              check (label ^ ": identical report") true (engine_r = backend_r);
              check (label ^ ": identical trace") true
                (String.equal engine_trace backend_trace))
            programs)
        Campaign.[ Pka; Ppa; Zcpa ])
    (repo_instances ())

let arb_instance_and_seed = Rmt_test_gen.Gen.arb_instance_and_seed

let sync_equivalence_random protocol name =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "%s: sync simulation == engine on random instances" name)
    arb_instance_and_seed
    (fun (inst, seed) ->
      let p = Strategy_gen.random (Prng.create seed) inst ~x_dealer:7 ~x_fake:8 in
      let engine_r, engine_trace =
        Campaign.execute_traced protocol inst ~x_dealer:7 p
      in
      let sim_r, sim_trace =
        Campaign.execute_traced
          ~runner:(Sim_exec.runner ~policy:Policy.sync)
          protocol inst ~x_dealer:7 p
      in
      engine_r = sim_r && engine_trace = sim_trace)

(* ------------------------------------------------------------------ *)
(* Scheduler-independent safety (Theorem 4 under any schedule)         *)
(* ------------------------------------------------------------------ *)

(* Theorem 4 is scheduler-independent over timely schedules — every
   first delivery on the synchronous timetable, inboxes permuted, late
   duplicates allowed.  Outside that space the property is FALSE for
   RMT-PKA: delaying one honest report past the receiver's decision
   round (asynchrony) or dropping it (unreliable channels) hides the
   evidence that vetoes a forged trail.  The pinned fixtures below keep
   a shrunk counterexample for each boundary. *)
let safety_under_schedules protocol name =
  QCheck.Test.make ~count:30
    ~name:
      (Printf.sprintf
         "%s: no timely schedule makes an admissible attack violate" name)
    arb_instance_and_seed
    (fun (inst, seed) ->
      let solvability = Campaign.solvability protocol inst in
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 2 do
        let p = Strategy_gen.random rng inst ~x_dealer:7 ~x_fake:8 in
        let sched_seed = Prng.int rng 1_073_741_823 in
        let r, _ =
          Sim_exec.execute_recorded ~params:Policy.timely_params ~sched_seed
            protocol inst ~x_dealer:7 p
        in
        let admissible = Instance.admissible inst (Program.corrupted p) in
        if
          Campaign.classify ~solvability ~admissible r
          = Campaign.Safety_violation
        then ok := false
      done;
      !ok)

let test_sim_recorded_deterministic () =
  (* record/replay round-trips for every protocol, certified included —
     the recorded-verdict discipline must not be PKA-only *)
  let _, inst = List.hd (repo_instances ()) in
  let p = Strategy_gen.random (Prng.create 5) inst ~x_dealer:7 ~x_fake:8 in
  List.iter
    (fun protocol ->
      let name = Campaign.protocol_to_string protocol in
      let run () =
        Sim_exec.execute_recorded ~params:Policy.default_params ~sched_seed:99
          protocol inst ~x_dealer:7 p
      in
      let r1, s1 = run () and r2, s2 = run () in
      check (name ^ ": same report") true (r1 = r2);
      check (name ^ ": same schedule") true (Schedule.equal s1 s2);
      (* replaying the recorded schedule reproduces the recorded run *)
      let r3 =
        Campaign.execute
          ~runner:(Sim_exec.runner ~policy:(Policy.of_schedule s1))
          protocol inst ~x_dealer:7 p
      in
      check (name ^ ": replay reproduces") true (r1 = r3))
    all_protocols

(* ------------------------------------------------------------------ *)
(* Schedule shrinking                                                  *)
(* ------------------------------------------------------------------ *)

let shrink_input =
  Schedule.make ~bound:4
    [
      (2, { Schedule.drop = false; delay = 4; key = 3; dup = Some 2 });
      (7, Schedule.drop_decision);
      (11, { Schedule.drop = false; delay = 2; key = 0; dup = None });
    ]

let test_shrink_to_sync () =
  (* an always-true predicate must shrink any schedule to the empty one *)
  let s = Sim_shrink.minimize ~keep:(fun _ -> true) shrink_input in
  check "all entries removed" true (Schedule.entries s = []);
  check "weightless" true (Schedule.size s = 0)

let test_shrink_respects_keep () =
  (* keeping "seq 7 still dropped" must preserve exactly that entry *)
  let keep s = (Schedule.decision_for s 7).Schedule.drop in
  let s = Sim_shrink.minimize ~keep shrink_input in
  check "predicate holds at fixpoint" true (keep s);
  check "only the needed entry survives" true
    (Schedule.entries s = [ (7, Schedule.drop_decision) ]);
  check "never grows" true (Schedule.size s <= Schedule.size shrink_input);
  (* determinism: shrinking again lands on the identical schedule *)
  let s' = Sim_shrink.minimize ~keep shrink_input in
  check "deterministic" true (Schedule.equal s s')

let test_shrink_budget () =
  let evals = ref 0 in
  let keep _ =
    incr evals;
    true
  in
  ignore (Sim_shrink.minimize ~budget:2 ~keep shrink_input);
  check "budget bounds evaluations" true (!evals <= 2)

(* ------------------------------------------------------------------ *)
(* The pinned reproducer pairs                                         *)
(* ------------------------------------------------------------------ *)

(* Generated by gen_fixture.ml:

   fixtures/strawman_reorder.{rmt,sched} pins the acceptance scenario —
   the order-sensitive strawman receiver is safe under the synchronous
   schedule but decides the corrupted relay's flipped value under the
   shrunk adversarial schedule.

   fixtures/pka_async_delay.{rmt,sched} pins the synchrony boundary —
   with one honest report delivered after the receiver's decision round
   (no message ever lost), RMT-PKA certifies a forged trail and decides
   a wrong value.

   fixtures/pka_message_loss.{rmt,sched} pins the reliable-channel
   boundary — the shrunk schedule consists of drops only, and losing one
   honest report is already enough for the same wrong decision.

   Together they delimit the timely schedule space swept by the safety
   property above: Theorem 4 holds under inbox permutation and late
   duplicates, and fails one step past either model assumption. *)

(* A replay pair asking for a billion-round delay bound must be refused
   at load time, not run: the round budget scales with the bound. *)
let test_huge_bound_fails_closed () =
  let t0 = Sys.time () in
  (match Sim_exec.load_pair ~rmt:"fixtures/huge_bound.rmt" with
   | Error e ->
     check "error names the cap" true
       (List.mem "cap" (String.split_on_char ' ' e))
   | Ok _ -> Alcotest.fail "a bound of 10^9 was accepted");
  check "refused in under a second" true (Sys.time () -. t0 < 1.0)

let fixture_replays ~rmt () =
  match Sim_exec.load_pair ~rmt with
  | Error e -> Alcotest.fail e
  | Ok (r, sched) ->
    check "schedule is genuinely asynchronous" true
      (Schedule.entries sched <> []);
    let report, _trace = Sim_exec.replay r sched in
    (match report.Campaign.verdict with
     | Campaign.Violated _ -> ()
     | v ->
       Alcotest.failf "expected a violation, got %s"
         (Campaign.verdict_to_string v));
    check "verdict matches the recorded one" true
      (Replay.verdict_matches r report);
    (* the violation belongs to the scheduler, not the program: the same
       attack under the synchronous schedule is harmless *)
    let sync_r =
      Campaign.execute
        ~runner:(Sim_exec.runner ~policy:Policy.sync)
        r.Replay.protocol r.Replay.instance ~x_dealer:r.Replay.x_dealer r.Replay.program
    in
    (match sync_r.Campaign.verdict with
     | Campaign.Violated _ ->
       Alcotest.fail "synchronous run violates too — schedule not needed"
     | Campaign.Delivered | Campaign.Silenced -> ())

let fixture_is_shrunk ~rmt () =
  match Sim_exec.load_pair ~rmt with
  | Error e -> Alcotest.fail e
  | Ok (r, sched) ->
    let expected =
      match r.Replay.expected with
      | Some v -> v
      | None -> Alcotest.fail "fixture lacks an expected verdict"
    in
    let keep sched =
      Campaign.reproduces ~verdict:expected
        (Campaign.execute
           ~runner:(Sim_exec.runner ~policy:(Policy.of_schedule sched))
           r.Replay.protocol r.Replay.instance ~x_dealer:r.Replay.x_dealer
           r.Replay.program)
    in
    let sched' = Sim_shrink.minimize ~keep sched in
    check "pinned schedule is a shrinking fixpoint" true
      (Schedule.equal sched sched')

let fixture_bytes_stable ~rmt () =
  (* byte-replayability: parsing and re-serializing the pinned schedule
     reproduces the file exactly *)
  let path = Sim_exec.sched_path_of rmt in
  let bytes = In_channel.with_open_text path In_channel.input_all in
  match Schedule.of_string bytes with
  | Error e -> Alcotest.fail e
  | Ok sched ->
    Alcotest.(check string) "re-serialization is identity" bytes
      (Schedule.to_string sched)

let strawman_rmt = "fixtures/strawman_reorder.rmt"
let pka_delay_rmt = "fixtures/pka_async_delay.rmt"
let pka_loss_rmt = "fixtures/pka_message_loss.rmt"

let test_strawman_is_reorder_violation () =
  (* the strawman pair must witness order sensitivity without any loss *)
  match Sim_exec.load_pair ~rmt:strawman_rmt with
  | Error e -> Alcotest.fail e
  | Ok (_, sched) ->
    check "no dropped message" true
      (List.for_all
         (fun (_, d) -> not d.Schedule.drop)
         (Schedule.entries sched))

let test_pka_delay_is_pure_delay () =
  (* the delay pair must witness the synchrony boundary alone: a late
     delivery survives shrinking and nothing is ever dropped *)
  match Sim_exec.load_pair ~rmt:pka_delay_rmt with
  | Error e -> Alcotest.fail e
  | Ok (r, sched) ->
    check "protocol is RMT-PKA" true (r.Replay.protocol = Campaign.Pka);
    check "no dropped message" true
      (List.for_all
         (fun (_, d) -> not d.Schedule.drop)
         (Schedule.entries sched));
    check "a late delivery survives shrinking" true
      (List.exists (fun (_, d) -> d.Schedule.delay > 1) (Schedule.entries sched))

let test_pka_loss_needs_a_drop () =
  (* the loss pair must witness the reliable-channel boundary alone: it
     was found under a drop-only policy, so every surviving entry is a
     drop and at least one remains after shrinking *)
  match Sim_exec.load_pair ~rmt:pka_loss_rmt with
  | Error e -> Alcotest.fail e
  | Ok (r, sched) ->
    check "protocol is RMT-PKA" true (r.Replay.protocol = Campaign.Pka);
    check "a dropped message survives shrinking" true
      (List.exists (fun (_, d) -> d.Schedule.drop) (Schedule.entries sched));
    check "nothing but drops" true
      (List.for_all (fun (_, d) -> d.Schedule.drop) (Schedule.entries sched))

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "schedule",
        [
          Alcotest.test_case "golden text" `Quick test_schedule_golden;
          Alcotest.test_case "normalization" `Quick test_schedule_normalization;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          qt test_schedule_roundtrip_random;
        ] );
      ( "policy",
        [
          Alcotest.test_case "sync" `Quick test_policy_sync;
          Alcotest.test_case "record/replay agree" `Quick
            test_policy_replay_matches_recording;
          Alcotest.test_case "inbox order oracle" `Quick
            test_inbox_order_oracle;
          qt test_inbox_order_model;
        ] );
      ( "sync-equivalence",
        [
          Alcotest.test_case "pinned over instances/" `Quick
            test_sync_equivalence_pinned;
          qt (sync_equivalence_random Campaign.Pka "RMT-PKA");
          qt (sync_equivalence_random Campaign.Ppa "PPA");
          qt (sync_equivalence_random Campaign.Zcpa "Z-CPA");
          qt (sync_equivalence_random Campaign.Strawman "strawman");
          qt (sync_equivalence_random Campaign.Cert_pka "cert-pka");
          qt (sync_equivalence_random Campaign.Cert_ppa "cert-ppa");
        ] );
      ( "conformance",
        [
          Alcotest.test_case "sim-sync backend" `Quick test_sim_sync_backend;
        ] );
      ( "safety",
        [
          qt (safety_under_schedules Campaign.Pka "RMT-PKA");
          qt (safety_under_schedules Campaign.Ppa "PPA");
          qt (safety_under_schedules Campaign.Zcpa "Z-CPA");
          (* strawman is deliberately absent: timely schedules permute
             inboxes, which is exactly what breaks it (the control). *)
          qt (safety_under_schedules Campaign.Cert_pka "cert-pka");
          qt (safety_under_schedules Campaign.Cert_ppa "cert-ppa");
          Alcotest.test_case "recorded run deterministic" `Quick
            test_sim_recorded_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "to sync" `Quick test_shrink_to_sync;
          Alcotest.test_case "respects keep" `Quick test_shrink_respects_keep;
          Alcotest.test_case "budget" `Quick test_shrink_budget;
        ] );
      ( "strawman reproducer",
        [
          Alcotest.test_case "replays to a violation" `Quick
            (fixture_replays ~rmt:strawman_rmt);
          Alcotest.test_case "shrinking fixpoint" `Quick
            (fixture_is_shrunk ~rmt:strawman_rmt);
          Alcotest.test_case "bytes stable" `Quick
            (fixture_bytes_stable ~rmt:strawman_rmt);
          Alcotest.test_case "pure reordering, no loss" `Quick
            test_strawman_is_reorder_violation;
        ] );
      ( "asynchrony boundary",
        [
          Alcotest.test_case "replays to a violation" `Quick
            (fixture_replays ~rmt:pka_delay_rmt);
          Alcotest.test_case "shrinking fixpoint" `Quick
            (fixture_is_shrunk ~rmt:pka_delay_rmt);
          Alcotest.test_case "bytes stable" `Quick
            (fixture_bytes_stable ~rmt:pka_delay_rmt);
          Alcotest.test_case "pure delay, no loss" `Quick
            test_pka_delay_is_pure_delay;
        ] );
      ( "message-loss boundary",
        [
          Alcotest.test_case "replays to a violation" `Quick
            (fixture_replays ~rmt:pka_loss_rmt);
          Alcotest.test_case "shrinking fixpoint" `Quick
            (fixture_is_shrunk ~rmt:pka_loss_rmt);
          Alcotest.test_case "bytes stable" `Quick
            (fixture_bytes_stable ~rmt:pka_loss_rmt);
          Alcotest.test_case "needs a dropped message" `Quick
            test_pka_loss_needs_a_drop;
        ] );
      ( "fail closed",
        [
          Alcotest.test_case "huge sched-bound" `Quick
            test_huge_bound_fails_closed;
        ] );
    ]
