(* Pins the RMT-PKA receiver's observable behaviour.

   - A golden of (verdict, rounds, messages, truncated) for a fixed set of
     seeded attack programs on three checked-in instances, each run on the
     synchronous engine and on the simulator under timely schedules.  The
     receiver's search reuses work across candidate values, conflict
     branches and rounds; none of that may move a decision, its round or a
     truncation flag, and this table is what says so.  Regenerate, only when
     a behaviour change is intended, from the repository root with
       dune build test/attack/test_pka_receiver.exe
       (cd _build/default/test/attack && ./test_pka_receiver.exe --print) \
         > test/attack/fixtures/pka_receiver.golden
   - A differential property: a fresh receiver handed every message the
     round-by-round receiver saw, in one inbox, decides the same value.
     The one-shot receiver has no earlier rounds to reuse work from. *)

open Rmt_base
open Rmt_knowledge
open Rmt_net
open Rmt_core
open Rmt_attack
module Policy = Rmt_sim.Policy
module Sim_exec = Rmt_sim.Sim_exec

let instances_dir = "../../instances"
let golden_path = "fixtures/pka_receiver.golden"
let x_dealer = 7
let x_fake = 8
let programs_per_instance = 100

let load name =
  match Codec.of_file (Filename.concat instances_dir (name ^ ".rmt")) with
  | Ok inst -> inst
  | Error e -> failwith (Printf.sprintf "cannot load %s: %s" name e)

let report_line name i backend (r : Campaign.run_report) =
  Printf.sprintf "%s %d %s %s %d %d %b" name i backend
    (Campaign.verdict_to_string r.verdict)
    r.rounds r.messages r.truncated

let golden_table () =
  let buf = Buffer.create 8192 in
  List.iteri
    (fun k name ->
      let inst = load name in
      let rng = Prng.create (2016 + k) in
      for i = 0 to programs_per_instance - 1 do
        let program = Strategy_gen.random rng inst ~x_dealer ~x_fake in
        let sched_seed = Prng.int rng 0x3fffffff in
        let engine = Campaign.execute Campaign.Pka inst ~x_dealer program in
        let policy =
          Policy.random (Prng.create sched_seed) Policy.timely_params
        in
        let sim =
          Campaign.execute ~runner:(Sim_exec.runner ~policy) Campaign.Pka inst
            ~x_dealer program
        in
        Buffer.add_string buf (report_line name i "engine" engine ^ "\n");
        Buffer.add_string buf (report_line name i "sim" sim ^ "\n")
      done)
    [ "onion_solvable"; "figure1_basic"; "path4_unsolvable" ];
  Buffer.contents buf

let test_golden () =
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  Alcotest.(check string) "receiver golden" expected (golden_table ())

(* ------------------------------------------------------------------ *)
(* One-shot vs round-by-round                                          *)
(* ------------------------------------------------------------------ *)

let prop_one_shot_agrees =
  QCheck.Test.make ~count:300 ~name:"one-shot receiver decides the same value"
    (QCheck.pair Rmt_test_gen.Gen.arb_instance QCheck.small_nat)
    (fun ((inst : Instance.t), seed) ->
      let program =
        Strategy_gen.random (Prng.create seed) inst ~x_dealer ~x_fake
      in
      let auto = Rmt_pka.automaton inst ~x_dealer in
      let inbox = ref [] in
      let outcome =
        Engine.run ~max_messages:200_000 ~size_of:Rmt_pka.msg_size
          ~stop_when:(fun dec -> dec inst.receiver <> None)
          ~on_deliver:(fun ~round:_ ~src ~dst m ->
            if dst = inst.receiver then inbox := (src, m) :: !inbox)
          ~graph:inst.graph
          ~adversary:(Strategy_gen.compile_pka program inst ~x_dealer)
          auto
      in
      let stepped = List.assoc inst.receiver outcome.states in
      let one_shot, _ =
        auto.step inst.receiver
          (fst (auto.init inst.receiver))
          ~round:1 ~inbox:(List.rev !inbox)
      in
      QCheck.assume
        ((not outcome.stats.truncated)
        && (not (Rmt_pka.search_truncated stepped))
        && not (Rmt_pka.search_truncated one_shot));
      Option.equal Int.equal
        (Rmt_pka.decision stepped)
        (Rmt_pka.decision one_shot))

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--print" then
    print_string (golden_table ())
  else
    Alcotest.run "pka-receiver"
      [
        ("golden", [ Alcotest.test_case "engine and sim" `Quick test_golden ]);
        ( "differential",
          [ QCheck_alcotest.to_alcotest prop_one_shot_agrees ] );
      ]
