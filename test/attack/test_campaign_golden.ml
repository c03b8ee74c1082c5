(* Pins what the attack harness reports, per checked-in instance and per
   protocol (pka, ppa, zcpa, strawman, cert-pka, cert-ppa):

   - a seeded engine campaign ([Campaign.run], seed 2016): its printed
     report plus every recorded safety violation and silenced example
     (verdict, rounds, messages, truncation, program);
   - a seeded schedule sweep ([Sweep.run]) under [Policy.timely_params],
     and for the certified protocols also inside [Envelope.default]'s
     delay bound and drop budget: its printed report plus every recorded
     violation with its schedule;
   - the MD5 of one rendered delivery trace ([Campaign.execute_traced]),
     on the engine and on the simulator pinned to [Policy.sync].

   How protocols are dispatched and how trials are tallied may change;
   none of these bytes may move.  Regenerate, only when a behaviour
   change is intended, from the repository root with
     dune build test/attack/test_campaign_golden.exe
     (cd _build/default/test/attack && ./test_campaign_golden.exe --print) \
       > test/attack/fixtures/campaign_runs.golden *)

open Rmt_base
open Rmt_knowledge
open Rmt_attack
module Policy = Rmt_sim.Policy
module Schedule = Rmt_sim.Schedule
module Sim_exec = Rmt_sim.Sim_exec
module Sweep = Rmt_sim.Sweep

let instances_dir = "../../instances"
let golden_path = "fixtures/campaign_runs.golden"
let seed = 2016
let x_dealer = 7
let x_fake = 8
let attacks = 24
let schedules = 24

let protocols =
  Campaign.[ Pka; Ppa; Zcpa; Strawman; Cert_pka; Cert_ppa ]

let checked_in () =
  Sys.readdir instances_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

let run_line tag (r : Campaign.run_report) =
  Printf.sprintf "  %s %s rounds=%d messages=%d truncated=%b program=[%s]"
    tag
    (Campaign.verdict_to_string r.verdict)
    r.rounds r.messages r.truncated
    (String.concat "; " (Program.to_lines r.program))

let envelope_params =
  let env = Rmt_protocols.Envelope.default in
  {
    Policy.default_params with
    Policy.delay_bound = env.Rmt_protocols.Envelope.delay_bound;
    drop_budget = env.drop_budget;
  }

let sweep_lines buf label params protocol inst =
  let report = Sweep.run ~params ~seed ~schedules ~x_dealer ~x_fake protocol inst in
  Buffer.add_string buf
    (Printf.sprintf "sweep %s\n%s\n" label
       (Format.asprintf "%a" Sweep.pp_report report));
  List.iter
    (fun (r, sched) ->
      Buffer.add_string buf (run_line "violation" r ^ "\n");
      Buffer.add_string buf
        (Printf.sprintf "  schedule %s\n"
           (String.concat "; " (Schedule.to_lines sched))))
    report.safety_violations

let trace_digest ?runner protocol inst =
  let program = Strategy_gen.random (Prng.create seed) inst ~x_dealer ~x_fake in
  let r, trace = Campaign.execute_traced ?runner protocol inst ~x_dealer program in
  Printf.sprintf "%s %s" (Campaign.verdict_to_string r.verdict)
    (Digest.to_hex (Digest.string trace))

let golden_table () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun protocol ->
          Buffer.add_string buf
            (Printf.sprintf "== %s %s\n" name
               (Campaign.protocol_to_string protocol));
          let report =
            Campaign.run ~seed ~attacks ~x_dealer ~x_fake protocol inst
          in
          Buffer.add_string buf
            (Format.asprintf "%a\n" Campaign.pp_report report);
          List.iter
            (fun (r, ()) ->
              Buffer.add_string buf (run_line "violation" r ^ "\n"))
            report.safety_violations;
          List.iter
            (fun r -> Buffer.add_string buf (run_line "silenced" r ^ "\n"))
            report.silenced_examples;
          sweep_lines buf "timely" Policy.timely_params protocol inst;
          (match protocol with
           | Campaign.Cert_pka | Campaign.Cert_ppa ->
             sweep_lines buf "envelope" envelope_params protocol inst
           | Campaign.Pka | Campaign.Ppa | Campaign.Zcpa | Campaign.Strawman
           | Campaign.Zcpa_sim ->
             ());
          Buffer.add_string buf
            (Printf.sprintf "trace engine %s\ntrace sim-sync %s\n"
               (trace_digest protocol inst)
               (trace_digest
                  ~runner:(Sim_exec.runner ~policy:Policy.sync)
                  protocol inst)))
        protocols)
    (checked_in ());
  Buffer.contents buf

let test_golden () =
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  Alcotest.(check string) "campaign golden" expected (golden_table ())

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--print" then
    print_string (golden_table ())
  else
    Alcotest.run "campaign-golden"
      [ ("golden", [ Alcotest.test_case "runs" `Quick test_golden ]) ]
