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
   - A second golden of the bits ([msg_size] summed over deliveries) of
     the same 600 runs, read from the backend's outcome through a runner
     wrapper.  It pins the message-size accounting, which the first table
     does not see.  Regenerate with [--print-bits] into
     test/attack/fixtures/pka_bits.golden.
   - A third golden of the receiver's final [Rmt_pka.receiver_trace] on
     the same 600 runs: the decided V_M and the reports M selects for it.
     The search derives and memoises G_M and what is known of it; a G_M
     that differed from the join of the selected reports would first show
     here, as different evidence.  Regenerate with [--print-evidence]
     into test/attack/fixtures/pka_evidence.golden.
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
let bits_path = "fixtures/pka_bits.golden"
let evidence_path = "fixtures/pka_evidence.golden"
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

(* [runner] that also records the bits of the last run it executed. *)
let keeping_bits (runner : Campaign.runner) =
  let bits = ref 0 in
  ( {
      Campaign.run =
        (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph ~adversary
             auto ->
          let o =
            runner.run ?max_messages ?size_of ?stop_when ?on_deliver ~graph
              ~adversary auto
          in
          bits := o.stats.bits;
          o);
    },
    bits )

(* The receiver's final trace after running [program] on [runner] the way
   [Campaign.execute] runs [Campaign.Pka]. *)
let receiver_evidence (runner : Campaign.runner) (inst : Instance.t) program =
  let outcome =
    runner.run ~size_of:Rmt_pka.msg_size
      ~stop_when:(fun dec -> dec inst.receiver <> None)
      ~graph:inst.graph
      ~adversary:(Strategy_gen.compile_pka program inst ~x_dealer)
      (Rmt_pka.automaton inst ~x_dealer)
  in
  Rmt_pka.receiver_trace (List.assoc inst.receiver outcome.states)

(* All three tables: the receiver golden, the bits golden and the evidence
   golden. *)
let golden_tables () =
  let buf = Buffer.create 8192 in
  let bits_buf = Buffer.create 4096 in
  let evidence_buf = Buffer.create 65536 in
  List.iteri
    (fun k name ->
      let inst = load name in
      let rng = Prng.create (2016 + k) in
      for i = 0 to programs_per_instance - 1 do
        let program = Strategy_gen.random rng inst ~x_dealer ~x_fake in
        let sched_seed = Prng.int rng 0x3fffffff in
        let runner, engine_bits = keeping_bits Campaign.engine_runner in
        let engine = Campaign.execute ~runner Campaign.Pka inst ~x_dealer program in
        let policy =
          Policy.random (Prng.create sched_seed) Policy.timely_params
        in
        let runner, sim_bits = keeping_bits (Sim_exec.runner ~policy) in
        let sim = Campaign.execute ~runner Campaign.Pka inst ~x_dealer program in
        Buffer.add_string buf (report_line name i "engine" engine ^ "\n");
        Buffer.add_string buf (report_line name i "sim" sim ^ "\n");
        Printf.bprintf bits_buf "%s %d engine %d\n%s %d sim %d\n" name i
          !engine_bits name i !sim_bits;
        let sim_runner =
          Sim_exec.runner
            ~policy:(Policy.random (Prng.create sched_seed) Policy.timely_params)
        in
        Printf.bprintf evidence_buf "%s %d engine\n%s%s %d sim\n%s" name i
          (receiver_evidence Campaign.engine_runner inst program)
          name i
          (receiver_evidence sim_runner inst program)
      done)
    [ "onion_solvable"; "figure1_basic"; "path4_unsolvable" ];
  (Buffer.contents buf, Buffer.contents bits_buf, Buffer.contents evidence_buf)

let tables = lazy (golden_tables ())
let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_golden () =
  let receiver, _, _ = Lazy.force tables in
  Alcotest.(check string) "receiver golden" (read_file golden_path) receiver

let test_bits () =
  let _, bits, _ = Lazy.force tables in
  Alcotest.(check string) "bits golden" (read_file bits_path) bits

let test_evidence () =
  let _, _, evidence = Lazy.force tables in
  Alcotest.(check string) "evidence golden" (read_file evidence_path) evidence

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
  match Sys.argv with
  | [| _; "--print" |] ->
    let receiver, _, _ = golden_tables () in
    print_string receiver
  | [| _; "--print-bits" |] ->
    let _, bits, _ = golden_tables () in
    print_string bits
  | [| _; "--print-evidence" |] ->
    let _, _, evidence = golden_tables () in
    print_string evidence
  | _ ->
    Alcotest.run "pka-receiver"
      [
        ( "golden",
          [
            Alcotest.test_case "engine and sim" `Quick test_golden;
            Alcotest.test_case "bits" `Quick test_bits;
            Alcotest.test_case "evidence" `Quick test_evidence;
          ] );
        ( "differential",
          [ QCheck_alcotest.to_alcotest prop_one_shot_agrees ] );
      ]
