(* The certified tier's headline suite — safety over lossy/asynchronous
   schedules inside the declared envelope, regression-tested against the
   exact Theorem-4 boundary fixtures that break raw RMT-PKA.

   Sections:
   - Envelope unit tests (clamping, slots, commit round, string codec).
   - The quorum predicate against hand-built adversary structures.
   - The headline replays: the pinned [pka_async_delay] and
     [pka_message_loss] reproducer pairs, which make raw RMT-PKA decide
     a forged value, replayed through cert-pka — whose verdict must be
     non-violating and identical to its own synchronous baseline.
   - A qcheck sweep of >= 1000 in-envelope lossy/async schedules across
     three adversary-structure families (global threshold, t-local,
     random antichain): zero safety violations.
   - The out-of-envelope lane: beyond the envelope a violation is
     findable and shrinks to a schedule that demonstrably fails
     envelope conformance — the safety claim is not vacuous.
   - Timely liveness on the checked-in instances (engine + timely
     sweeps).
   - Backend conformance: cert-pka / cert-ppa produce byte-identical
     reports and traces on the synchronous engine and on the simulator
     pinned to Policy.sync, plugged in as a campaign runner.
   - A pinned golden of the solvability-frontier experiment
     ({!Rmt_sim.Frontier}) over the boundary instance.
   - A no-change golden of what the wrapper sends and decides, per run,
     against seeded attack programs on the engine and under in-envelope
     random schedules (fixtures/certified_runs.golden).
   - Dedup unit tests: equal payloads collapse per trail, distinct
     trails and distinct reports (down to 𝒵's ground set) never do. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_attack
open Rmt_protocols
open Rmt_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qt = QCheck_alcotest.to_alcotest
let instances_dir = "../../instances"
let sim_fixtures_dir = "../sim/fixtures"

let load_instance path =
  match Codec.of_file path with
  | Ok inst -> inst
  | Error e -> Alcotest.failf "cannot load %s: %s" path e

let boundary_instance () = load_instance "fixtures/boundary.rmt"

let repo_instances () =
  Sys.readdir instances_dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.map (fun f ->
         (Filename.chop_suffix f ".rmt", load_instance (Filename.concat instances_dir f)))

let violating v = match v with Campaign.Violated _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Envelope                                                            *)
(* ------------------------------------------------------------------ *)

let test_envelope_default () =
  check_int "default delay bound" 3 Envelope.default.Envelope.delay_bound;
  check_int "default drop budget" 2 Envelope.default.Envelope.drop_budget

let test_envelope_clamps () =
  let e = Envelope.make ~delay_bound:0 ~drop_budget:(-5) in
  check_int "delay clamped up to 1" 1 e.Envelope.delay_bound;
  check_int "drops clamped up to 0" 0 e.Envelope.drop_budget;
  let e = Envelope.make ~delay_bound:2 ~drop_budget:9 in
  check_int "drops clamped to max_drop_budget" Envelope.max_drop_budget
    e.Envelope.drop_budget

let test_envelope_slots () =
  List.iter
    (fun l ->
      let e = Envelope.make ~delay_bound:1 ~drop_budget:l in
      check_int
        (Printf.sprintf "slots(%d) = drop_budget + 1" l)
        (e.Envelope.drop_budget + 1)
        (List.length (Envelope.slots e)))
    [ 0; 1; 2; 3; 7 ]

let test_envelope_commit_round () =
  let e = Envelope.make ~delay_bound:3 ~drop_budget:2 in
  (* (n - 1) * delay_bound + 2 *)
  check_int "commit round, n = 7" 20 (Envelope.commit_round e ~num_nodes:7);
  let e1 = Envelope.make ~delay_bound:1 ~drop_budget:0 in
  check_int "commit round, sync envelope" 8
    (Envelope.commit_round e1 ~num_nodes:7)

let test_envelope_string_codec () =
  check_string "default renders d3l2" "d3l2" (Envelope.to_string Envelope.default);
  List.iter
    (fun (d, l) ->
      let e = Envelope.make ~delay_bound:d ~drop_budget:l in
      match Envelope.of_string (Envelope.to_string e) with
      | Some e' ->
        check (Printf.sprintf "round-trip d%dl%d" d l) true (e = e')
      | None -> Alcotest.failf "of_string rejected %s" (Envelope.to_string e))
    [ (1, 0); (3, 2); (6, 3) ];
  List.iter
    (fun s ->
      check (Printf.sprintf "of_string rejects %S" s) true
        (Envelope.of_string s = None))
    [ ""; "x"; "d0l1"; "d3l-1"; "d3l9"; "d3l2x"; "l2d3" ]

(* ------------------------------------------------------------------ *)
(* Quorum                                                              *)
(* ------------------------------------------------------------------ *)

let test_quorum_predicate () =
  let ground = Nodeset.of_list [ 1; 2; 3; 4; 5; 6 ] in
  let z =
    Structure.of_sets ~ground
      [ Nodeset.of_list [ 1; 2 ]; Nodeset.of_list [ 3 ]; Nodeset.of_list [ 4 ] ]
  in
  check "full echo set is a quorum" true (Certified.quorum z ground);
  check "missing {1,2} is admissible -> quorum" true
    (Certified.quorum z (Nodeset.of_list [ 3; 4; 5; 6 ]));
  check "missing {3} -> quorum" true
    (Certified.quorum z (Nodeset.of_list [ 1; 2; 4; 5; 6 ]));
  check "missing {1,2,3} spans two sets -> no quorum" false
    (Certified.quorum z (Nodeset.of_list [ 4; 5; 6 ]));
  check "missing {5} is not admissible -> no quorum" false
    (Certified.quorum z (Nodeset.of_list [ 1; 2; 3; 4; 6 ]));
  (* empty adversary family: only the full echo set passes *)
  let z0 = Structure.empty_family ~ground in
  check "empty family, all echoes" true (Certified.quorum z0 ground);
  check "empty family, one missing" false
    (Certified.quorum z0 (Nodeset.of_list [ 2; 3; 4; 5; 6 ]))

(* ------------------------------------------------------------------ *)
(* Headline: the Theorem-4 boundary pairs, survived                    *)
(* ------------------------------------------------------------------ *)

let boundary_pairs = [ "pka_async_delay"; "pka_message_loss" ]

(* Both fixture instances are PKA-unsolvable, so the correct decision —
   synchronous or not — is silence; the recorded schedules nevertheless
   drive raw RMT-PKA into certifying a forged value.  The certified
   wrapper must (a) never decide a wrong value under the recorded
   schedule, and (b) agree with its own synchronous baseline: inside
   the envelope the schedule must not be able to change its verdict. *)
let test_fixture_survival name () =
  let rmt = Filename.concat sim_fixtures_dir (name ^ ".rmt") in
  match Sim_exec.load_pair ~rmt with
  | Error e -> Alcotest.failf "cannot load pair %s: %s" rmt e
  | Ok (r, sched) ->
    check (name ^ ": schedule conforms to the default envelope") true
      (Envelope_check.conforms Envelope.default sched);
    check (name ^ ": instance is PKA-unsolvable") false
      (Rmt_core.Solvability.is_solvable
         (Campaign.solvability Campaign.Pka r.Replay.instance));
    (* raw RMT-PKA still breaks under the recorded schedule *)
    let pka_report, _ = Sim_exec.replay r sched in
    check (name ^ ": raw pka violates under the schedule") true
      (violating pka_report.Campaign.verdict);
    check (name ^ ": recorded verdict reproduced") true
      (Replay.verdict_matches r pka_report);
    (* the certified wrapper survives the exact same schedule *)
    let cert =
      Replay.make ~protocol:Campaign.Cert_pka ~x_dealer:r.Replay.x_dealer
        r.Replay.instance r.Replay.program
    in
    let sched_report, _ = Sim_exec.replay cert sched in
    let sync_report =
      Campaign.execute Campaign.Cert_pka r.Replay.instance
        ~x_dealer:r.Replay.x_dealer r.Replay.program
    in
    check (name ^ ": cert-pka does not violate under the schedule") false
      (violating sched_report.Campaign.verdict);
    check (name ^ ": cert-pka does not violate synchronously") false
      (violating sync_report.Campaign.verdict);
    check (name ^ ": in-envelope schedule cannot change cert's verdict") true
      (Campaign.verdict_equal sched_report.Campaign.verdict
         sync_report.Campaign.verdict);
    check (name ^ ": unsolvable instance -> cert stays silent") true
      (Campaign.verdict_equal sched_report.Campaign.verdict Campaign.Silenced)

(* ------------------------------------------------------------------ *)
(* In-envelope sweep: >= 1000 schedules, three structure families      *)
(* ------------------------------------------------------------------ *)

(* Each qcheck trial builds one random connected graph and runs a
   20-schedule lossy/async sweep (Policy.default_params draws inside
   Envelope.default) for each of the three adversary-structure
   families.  17 trials x 3 families x 20 schedules = 1020 in-envelope
   schedules; any safety violation fails the property and carries its
   recorded schedule. *)
let sweep_families g ~dealer rng =
  [
    ("threshold-1", Builders.global_threshold g ~dealer 1);
    ("t-local-1", Builders.t_local g ~dealer 1);
    ("antichain", Builders.random_antichain rng g ~dealer ~sets:4 ~max_size:2);
  ]

let test_in_envelope_sweep =
  QCheck.Test.make ~count:17 ~name:"cert safety inside the envelope (sweep)"
    QCheck.(make Gen.(int_bound 9999))
    (fun seed ->
      check "default params draw inside the default envelope" true
        (Envelope_check.params_within Policy.default_params Envelope.default);
      let rng = Prng.create seed in
      let n = 5 + (seed mod 3) in
      let g = Generators.random_connected_gnp rng n 0.5 in
      let dealer = 0 and receiver = n - 1 in
      let protocol =
        if seed mod 2 = 0 then Campaign.Cert_pka else Campaign.Cert_ppa
      in
      List.for_all
        (fun (family, structure) ->
          let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer ~receiver in
          let report =
            Sweep.run ~params:Policy.default_params ~seed ~schedules:20
              protocol inst
          in
          if report.Campaign.violated > 0 then
            QCheck.Test.fail_reportf
              "safety violation inside the envelope: %s on %s, seed %d \
               (violated %d/%d)"
              (Campaign.protocol_to_string protocol)
              family seed report.Campaign.violated report.Campaign.trials
          else true)
        (sweep_families g ~dealer rng))

(* The same claim over the checked-in boundary instance, at volume. *)
let test_in_envelope_boundary_sweep () =
  let inst = boundary_instance () in
  List.iter
    (fun (protocol, seed) ->
      let report =
        Sweep.run ~params:Policy.default_params ~seed ~schedules:120 protocol
          inst
      in
      check
        (Printf.sprintf "%s boundary sweep seed %d: no violations"
           (Campaign.protocol_to_string protocol)
           seed)
        true
        (report.Campaign.violated = 0))
    Campaign.[ (Cert_pka, 2016); (Cert_ppa, 2016) ]

(* ------------------------------------------------------------------ *)
(* Out-of-envelope: violations are findable, and shrink               *)
(* ------------------------------------------------------------------ *)

let wild_params =
  {
    Policy.default_params with
    Policy.delay_bound = 6;
    p_late = 0.6;
    p_drop = 0.4;
    drop_budget = 12;
  }

let test_out_of_envelope_violation () =
  check "wild params do not fit the default envelope" false
    (Envelope_check.params_within wild_params Envelope.default);
  let inst = boundary_instance () in
  let report =
    Sweep.run ~params:wild_params ~seed:19 ~schedules:60 ~x_dealer:7 ~x_fake:8
      Campaign.Cert_pka inst
  in
  check "violation found outside the envelope" true (report.Campaign.violated > 0);
  match report.Campaign.safety_violations with
  | [] -> Alcotest.fail "violated > 0 but no recorded schedule"
  | (vr, vs) :: _ ->
    let vr', vs' =
      Sweep.shrink_violation ~budget:150 Campaign.Cert_pka ~x_dealer:7 inst
        (vr, vs)
    in
    check "shrunk run still violates" true (violating vr'.Campaign.verdict);
    check "shrinking never grows the schedule" true
      (Schedule.size vs' <= Schedule.size vs);
    check "shrunk schedule exceeds the declared envelope" false
      (Envelope_check.conforms Envelope.default vs')

(* ------------------------------------------------------------------ *)
(* Liveness on timely schedules                                        *)
(* ------------------------------------------------------------------ *)

let test_engine_liveness () =
  let p = Program.make ~seed:0 [] in
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun protocol ->
          let solvable =
            Rmt_core.Solvability.is_solvable
              (Campaign.solvability protocol inst)
          in
          let r = Campaign.execute protocol inst ~x_dealer:7 p in
          let label =
            Printf.sprintf "%s on %s" (Campaign.protocol_to_string protocol)
              name
          in
          if solvable then
            check (label ^ ": delivers synchronously") true
              (Campaign.verdict_equal r.Campaign.verdict Campaign.Delivered)
          else
            check (label ^ ": never violates") false
              (violating r.Campaign.verdict))
        Campaign.[ Cert_pka; Cert_ppa ])
    (repo_instances ())

let test_timely_sweep_liveness () =
  let inst = boundary_instance () in
  let report =
    Sweep.run ~params:Policy.timely_params ~seed:2016 ~schedules:40
      Campaign.Cert_pka inst
  in
  check_int "timely sweep: no violations" 0 report.Campaign.violated;
  check_int "timely sweep: no liveness losses" 0 report.Campaign.liveness_lost

(* ------------------------------------------------------------------ *)
(* Backend conformance (certified family)                              *)
(* ------------------------------------------------------------------ *)

let conformance_instances () =
  [
    ("figure1_basic", load_instance (Filename.concat instances_dir "figure1_basic.rmt"));
    ("path4_unsolvable", load_instance (Filename.concat instances_dir "path4_unsolvable.rmt"));
    ("boundary", boundary_instance ());
  ]

let pinned_programs inst =
  Program.make ~seed:0 []
  :: List.map
       (fun s -> Strategy_gen.random (Prng.create s) inst ~x_dealer:7 ~x_fake:8)
       [ 1; 2 ]

(* A fresh runner per execution: the runner consumes its policy. *)
let test_sim_sync_backend () =
  List.iter
    (fun (name, inst) ->
      let programs = pinned_programs inst in
      List.iter
        (fun protocol ->
          List.iteri
            (fun i p ->
              let label =
                Printf.sprintf "sim-sync/%s/%s/program %d" name
                  (Campaign.protocol_to_string protocol)
                  i
              in
              let engine_r, engine_trace =
                Campaign.execute_traced protocol inst ~x_dealer:7 p
              in
              let backend_r, backend_trace =
                Campaign.execute_traced
                  ~runner:(Sim_exec.runner ~policy:Policy.sync)
                  protocol inst ~x_dealer:7 p
              in
              check (label ^ ": identical report") true (engine_r = backend_r);
              check (label ^ ": identical trace") true
                (String.equal engine_trace backend_trace))
            programs)
        Campaign.[ Cert_pka; Cert_ppa ])
    (conformance_instances ())

(* ------------------------------------------------------------------ *)
(* Frontier golden                                                     *)
(* ------------------------------------------------------------------ *)

(* Frontier.run is deterministic in (seed, grid) and
   independent of the domain count, so the rendered table pins the
   whole experiment: zero violations inside the envelope, and the
   outermost point exhibiting the violation that keeps the boundary
   lane honest. *)
let frontier_golden =
  "delay drops envelope schedules delivered silenced violated liveness_lost\n\
  \    1     0   inside        60        50       10        0             0\n\
  \    2     1   inside        60        50       10        0             0\n\
  \    3     2   inside        60        50       10        0             0\n\
  \    4     4  outside        60        49       11        0             0\n\
  \    6    12  outside        60        44       15        1             0\n"

let test_frontier_golden () =
  let inst = boundary_instance () in
  let rows =
    Frontier.run ~seed:19 Campaign.Cert_pka inst Frontier.default_grid
  in
  List.iter
    (fun r ->
      if r.Frontier.in_envelope then
        check_int
          (Printf.sprintf "inside point (%d,%d): zero violations"
             r.Frontier.point.Frontier.delay_bound
             r.Frontier.point.Frontier.drop_budget)
          0 r.Frontier.violated)
    rows;
  check_string "frontier table golden" frontier_golden (Frontier.to_table rows)

(* ------------------------------------------------------------------ *)
(* No-change golden                                                    *)
(* ------------------------------------------------------------------ *)

(* Per run: Transport.stats (messages, bits, rounds, truncated), the
   receiver's decision, and its evidence count, echo set and
   replay-truncation flag — cert-pka and cert-ppa against the same 25
   seeded attack programs per instance, on the synchronous engine and
   on the simulator under a seeded in-envelope random policy.  The
   wrapper's dedup and relay bookkeeping may get cheaper; none of it may
   change a sent message or a decision, and this table is what says so.
   Regenerate, only when a behaviour change is intended, from the
   repository root with
     dune build test/protocols/test_certified.exe
     (cd test/protocols && \
        ../../_build/default/test/protocols/test_certified.exe --print) \
       > test/protocols/fixtures/certified_runs.golden *)

let golden_path = "fixtures/certified_runs.golden"
let golden_programs = 25

let cert_run_line ~(runner : Campaign.runner) ~size_of ~adversary
    (inst : Instance.t) auto =
  let o =
    runner.Campaign.run ~size_of
      ~stop_when:(fun dec -> Option.is_some (dec inst.receiver))
      ~graph:inst.graph ~adversary auto
  in
  let s = o.Rmt_net.Engine.stats in
  let receiver =
    match List.assoc_opt inst.receiver o.Rmt_net.Engine.states with
    | None -> "-"
    | Some st ->
      Printf.sprintf "%d {%s} %b"
        (Certified.evidence_count st)
        (String.concat ","
           (List.map string_of_int (Nodeset.elements (Certified.echo_set st))))
        (Certified.truncated st)
  in
  Printf.sprintf "%d %d %d %b %s %s" s.Rmt_net.Engine.messages
    s.Rmt_net.Engine.bits s.Rmt_net.Engine.rounds s.Rmt_net.Engine.truncated
    (match Rmt_net.Engine.decision_of o inst.receiver with
     | Some x -> string_of_int x
     | None -> "-")
    receiver

let golden_table () =
  let x_dealer = 7 in
  let buf = Buffer.create 16384 in
  List.iteri
    (fun k name ->
      let inst =
        load_instance (Filename.concat instances_dir (name ^ ".rmt"))
      in
      let rng = Prng.create (2016 + k) in
      for i = 0 to golden_programs - 1 do
        let program = Strategy_gen.random rng inst ~x_dealer ~x_fake:8 in
        let sched_seed = Prng.int rng 0x3fffffff in
        (* a fresh runner per execution: the sim runner consumes its policy *)
        let runners =
          [
            ("engine", fun () -> Campaign.engine_runner);
            ( "sim",
              fun () ->
                Sim_exec.runner
                  ~policy:
                    (Policy.random (Prng.create sched_seed)
                       Policy.default_params) );
          ]
        in
        List.iter
          (fun (backend, runner) ->
            let line protocol result =
              Printf.bprintf buf "%s %d %s %s %s\n" name i protocol backend
                result
            in
            line "cert-pka"
              (cert_run_line ~runner:(runner ())
                 ~size_of:Certified.pka_msg_size
                 ~adversary:
                   (Strategy_gen.compile_cert_pka program inst ~x_dealer)
                 inst
                 (Certified.pka inst ~x_dealer));
            line "cert-ppa"
              (cert_run_line ~runner:(runner ())
                 ~size_of:Certified.ppa_msg_size
                 ~adversary:
                   (Strategy_gen.compile_cert_ppa program inst ~x_dealer)
                 inst
                 (Certified.ppa inst.graph ~structure:inst.structure
                    ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer)))
          runners
      done)
    [ "figure1_basic"; "path4_unsolvable" ];
  Buffer.contents buf

let test_no_change_golden () =
  let expected = In_channel.with_open_bin golden_path In_channel.input_all in
  check_string "certified runs golden" expected (golden_table ())

(* ------------------------------------------------------------------ *)
(* Dedup                                                               *)
(* ------------------------------------------------------------------ *)

(* Drives the cert-pka receiver of figure1_basic (receiver 4, neighbours
   1, 2, 3) by hand: one [Load] per round, each [(round, src, trail,
   payload)].  [forged] builds its report from scratch on every call, so
   two calls give structurally equal, physically distinct payloads — what
   a forger re-sending one report each round produces. *)
let forged ?(edges = [ (0, 1); (1, 4) ]) ?(sets = [ [ 2 ] ])
    ?(ground = [ 0; 1; 2; 3; 4 ]) () =
  Rmt_core.Rmt_pka.Info
    (Rmt_core.Rmt_pka.report ~origin:1 ~gamma:(Graph.of_edges edges)
       ~zeta:
         (Structure.of_sets ~ground:(Nodeset.of_list ground)
            (List.map Nodeset.of_list sets)))

let evidence_after deliveries =
  let inst =
    load_instance (Filename.concat instances_dir "figure1_basic.rmt")
  in
  let auto = Certified.pka inst ~x_dealer:7 in
  let r = inst.Instance.receiver in
  let st =
    List.fold_left
      (fun st (round, src, trail, p) ->
        fst
          (auto.Rmt_net.Engine.step r st ~round
             ~inbox:
               [ (src, { Rmt_net.Flood.payload = Certified.Load p; trail }) ]))
      (fst (auto.Rmt_net.Engine.init r))
      deliveries
  in
  Certified.evidence_count st

let test_dedup_reforged () =
  let a = forged () and b = forged () in
  check "re-forged reports are physically distinct" false (a == b);
  check_int "equal reports on one trail are one fact" 1
    (evidence_after [ (1, 1, [ 1 ], a); (2, 1, [ 1 ], b) ])

let test_dedup_trails () =
  let p = forged () in
  check_int "one payload on two trails is two facts" 2
    (evidence_after [ (1, 1, [ 1 ], p); (2, 3, [ 1; 3 ], p) ])

let test_dedup_distinct_reports () =
  check_int "reports differing only in zeta stay apart" 2
    (evidence_after
       [ (1, 1, [ 1 ], forged ()); (2, 1, [ 1 ], forged ~sets:[ [ 3 ] ] ()) ]);
  check_int "reports differing only in gamma stay apart" 2
    (evidence_after
       [
         (1, 1, [ 1 ], forged ());
         (2, 1, [ 1 ], forged ~edges:[ (0, 1); (1, 3) ] ());
       ])

(* 𝒵's ground set is part of the report: a serialization of the
   maximal sets alone once made these two one fact, so a forged report
   could mask an honest one that differed only in its ground set. *)
let test_dedup_ground () =
  check_int "reports differing only in zeta's ground set stay apart" 2
    (evidence_after
       [
         (1, 1, [ 1 ], forged ());
         (2, 1, [ 1 ], forged ~ground:[ 0; 1; 2; 3; 4; 5 ] ());
       ])

(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "--print" then
    print_string (golden_table ())
  else
  Alcotest.run "certified"
    [
      ( "envelope",
        [
          Alcotest.test_case "default" `Quick test_envelope_default;
          Alcotest.test_case "clamps" `Quick test_envelope_clamps;
          Alcotest.test_case "slots" `Quick test_envelope_slots;
          Alcotest.test_case "commit round" `Quick test_envelope_commit_round;
          Alcotest.test_case "string codec" `Quick test_envelope_string_codec;
        ] );
      ("quorum", [ Alcotest.test_case "predicate" `Quick test_quorum_predicate ]);
      ( "boundary fixtures",
        List.map
          (fun name ->
            Alcotest.test_case name `Quick (test_fixture_survival name))
          boundary_pairs );
      ( "in-envelope safety",
        [
          qt test_in_envelope_sweep;
          Alcotest.test_case "boundary instance sweep" `Slow
            test_in_envelope_boundary_sweep;
        ] );
      ( "out-of-envelope",
        [
          Alcotest.test_case "violation found and shrunk" `Slow
            test_out_of_envelope_violation;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "engine delivery" `Quick test_engine_liveness;
          Alcotest.test_case "timely sweep" `Quick test_timely_sweep_liveness;
        ] );
      ( "conformance",
        [ Alcotest.test_case "sim sync backend" `Quick test_sim_sync_backend ] );
      ( "frontier",
        [ Alcotest.test_case "pinned golden" `Slow test_frontier_golden ] );
      ( "no-change golden",
        [
          Alcotest.test_case "engine and in-envelope sim" `Quick
            test_no_change_golden;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "re-forged report is one fact" `Quick
            test_dedup_reforged;
          Alcotest.test_case "distinct trails are distinct facts" `Quick
            test_dedup_trails;
          Alcotest.test_case "distinct reports never collapse" `Quick
            test_dedup_distinct_reports;
          Alcotest.test_case "ground set is part of a report" `Quick
            test_dedup_ground;
        ] );
    ]
