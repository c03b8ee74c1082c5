(* rmt — command-line interface to the library.

   Subcommands:
     analyze   feasibility of an instance (cut witnesses, minimal radius)
     run       execute a protocol on a simulated network
     attack    mount the two-face indistinguishability attack
     fuzz      seeded adversarial campaign / reproducer replay
     sim       asynchronous simulation under adversarial schedules
     serve-solve  streaming solvability service over instance deltas
     dot       emit the instance as Graphviz

   Instances are described by three little specs:
     --topology  grid:3x4 | king:3x4 | layered:3x2 | cycle:8 | complete:5 |
                 ladder:4 | path:6 | random:12:0.3
     --adversary thr:1 | local:1 | rand:4:2
     --knowledge adhoc | full | radius:2

   Example:
     rmt analyze --topology grid:3x4 --adversary thr:1 --receiver 11
     rmt run --protocol pka --topology layered:3x2 --receiver 7 --value 42 \
             --corrupt 1 --strategy value-flip *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let parse_error fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt

let split_spec s = String.split_on_char ':' s
let ( let* ) = Result.bind

(* A spec's numeric field, and a generator's own argument check: a
   malformed or negative number, or a size the generator rejects, is a
   spec error (exit 124) like an unknown spec, never an exception. *)
let nat spec s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | _ ->
    Error (Printf.sprintf "spec %S: %S is not a non-negative integer" spec s)

let checked spec f =
  try Ok (f ())
  with Invalid_argument m -> Error (Printf.sprintf "spec %S: %s" spec m)

(* An optional probability flag; NaN fails both comparisons. *)
let probability flag = function
  | Some p when not (p >= 0. && p <= 1.) ->
    Error (Printf.sprintf "%s must be in [0, 1], got %g" flag p)
  | _ -> Ok ()

let topology_of_spec seed spec =
  let rng = Prng.create seed in
  let nat = nat spec and checked = checked spec in
  let sized gen n =
    let* n = nat n in
    checked (fun () -> gen n)
  in
  match split_spec spec with
  | [ ("grid" | "king") as kind; dims ] ->
    (match String.split_on_char 'x' dims with
     | [ r; c ] ->
       let* r = nat r in
       let* c = nat c in
       checked (fun () ->
           if kind = "king" then Generators.king_grid r c
           else Generators.grid r c)
     | _ -> Error "grid spec must be grid:RxC")
  | [ "layered"; dims ] ->
    (match String.split_on_char 'x' dims with
     | [ w; d ] ->
       let* width = nat w in
       let* depth = nat d in
       checked (fun () -> Generators.layered ~width ~depth)
     | _ -> Error "layered spec must be layered:WxD")
  | [ "cycle"; n ] -> sized Generators.cycle n
  | [ "complete"; n ] -> sized Generators.complete n
  | [ "ladder"; n ] -> sized Generators.ladder n
  | [ "path"; n ] -> sized Generators.path_graph n
  | [ "random"; n; p ] ->
    (match float_of_string_opt p with
     | None -> Error (Printf.sprintf "spec %S: %S is not a number" spec p)
     | Some p -> sized (fun n -> Generators.random_connected_gnp rng n p) n)
  | _ -> Error (Printf.sprintf "unknown topology spec %S" spec)

let structure_of_spec seed spec g ~dealer =
  let rng = Prng.create (seed + 1) in
  let nat = nat spec and checked = checked spec in
  match split_spec spec with
  | [ "thr"; t ] ->
    let* t = nat t in
    checked (fun () -> Builders.global_threshold g ~dealer t)
  | [ "local"; t ] ->
    let* t = nat t in
    checked (fun () -> Builders.t_local g ~dealer t)
  | [ "rand"; sets; max_size ] ->
    let* sets = nat sets in
    let* max_size = nat max_size in
    checked (fun () -> Builders.random_antichain rng g ~dealer ~sets ~max_size)
  | _ -> Error (Printf.sprintf "unknown adversary spec %S" spec)

let view_of_spec spec g =
  match split_spec spec with
  | [ "adhoc" ] -> Ok (View.ad_hoc g)
  | [ "full" ] -> Ok (View.full g)
  | [ "radius"; k ] ->
    let* k = nat spec k in
    checked spec (fun () -> View.radius k g)
  | _ -> Error (Printf.sprintf "unknown knowledge spec %S" spec)

let rec build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
    ~receiver () =
  match file with
  | Some path -> Codec.of_file path
  | None -> build_from_specs ~seed ~topology ~adversary ~knowledge ~dealer ~receiver

and build_from_specs ~seed ~topology ~adversary ~knowledge ~dealer ~receiver =
  match topology_of_spec seed topology with
  | Error e -> Error e
  | Ok g ->
    let receiver =
      match receiver with
      | Some r -> r
      | None ->
        (* farthest node from the dealer *)
        List.fold_left
          (fun (bv, bd) (v, d) -> if d > bd then (v, d) else (bv, bd))
          (dealer, 0)
          (Connectivity.distances_from g dealer)
        |> fst
    in
    (match structure_of_spec seed adversary g ~dealer with
     | Error e -> Error e
     | Ok structure ->
       (match view_of_spec knowledge g with
        | Error e -> Error e
        | Ok view ->
          (try Ok (Instance.make ~graph:g ~structure ~view ~dealer ~receiver)
           with Invalid_argument m -> Error m)))

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let topology_t =
  Arg.(value & opt string "layered:3x2" & info [ "topology" ] ~docv:"SPEC")

let adversary_t =
  Arg.(value & opt string "thr:1" & info [ "adversary" ] ~docv:"SPEC")

let knowledge_t =
  Arg.(value & opt string "adhoc" & info [ "knowledge" ] ~docv:"SPEC")

let dealer_t = Arg.(value & opt int 0 & info [ "dealer" ] ~docv:"NODE")

let receiver_t =
  Arg.(value & opt (some int) None & info [ "receiver" ] ~docv:"NODE")

let seed_t = Arg.(value & opt int 2016 & info [ "seed" ] ~docv:"INT")

let file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "instance" ] ~docv:"FILE"
        ~doc:"Load the instance from a file (see lib/knowledge/codec.mli); \
              overrides the topology/adversary/knowledge specs.")

let value_t = Arg.(value & opt int 42 & info [ "value" ] ~docv:"INT")

let dec_str = function
  | None -> "⊥ (no decision)"
  | Some x -> string_of_int x

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze file seed topology adversary knowledge dealer receiver =
  match
    build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
      ~receiver ()
  with
  | Error e -> parse_error "%s" e
  | Ok inst ->
    Printf.printf "%s\n\n" (Format.asprintf "%a" Instance.pp inst);
    let pk = Cut.find_rmt_cut inst in
    Printf.printf "RMT-cut (partial knowledge): %s\n"
      (match (pk.cut_found, pk.complete) with
       | Some w, _ -> Format.asprintf "EXISTS — %a" Cut.pp_witness w
       | None, true -> "none (RMT solvable, Thms 3+5)"
       | None, false -> "unknown (budget exhausted)");
    let zpp = Cut.find_rmt_zpp_cut inst in
    Printf.printf "RMT Z-pp cut (ad hoc):       %s\n"
      (match (zpp.cut_found, zpp.complete) with
       | Some w, _ -> Format.asprintf "EXISTS — %a" Cut.pp_witness w
       | None, true -> "none (Z-CPA solves this, Thms 7+8)"
       | None, false -> "unknown (budget exhausted)");
    (match
       Minimal_knowledge.minimal_radius ~graph:inst.graph
         ~structure:inst.structure ~dealer:inst.dealer ~receiver:inst.receiver
     with
     | Minimal_knowledge.Radius k ->
       Printf.printf "Minimal uniform view radius: %d\n" k
     | Minimal_knowledge.Unsolvable ->
       Printf.printf "Minimal uniform view radius: none (unsolvable)\n"
     | Minimal_knowledge.Unknown ->
       print_endline "Minimal uniform view radius: unknown (budget exhausted)");
    `Ok ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let protocol_t =
  let open Rmt_attack.Campaign in
  Arg.(
    value
    & opt (enum (List.map (fun p -> (protocol_to_string p, p)) protocols)) Pka
    & info [ "protocol" ]
        ~docv:(String.concat "|" (List.map protocol_to_string protocols)))

let corrupt_t =
  Arg.(value & opt_all int [] & info [ "corrupt" ] ~docv:"NODE")

(* a menu's labels do not depend on its arguments: read them off the
   empty graph *)
let menu_labels p =
  List.map fst (Rmt_attack.Campaign.menu p Graph.empty ~x_fake:0 Nodeset.empty)

let strategy_t =
  let open Rmt_attack.Campaign in
  let groups =
    Util.group_by ~cmp:String.compare
      (fun p -> String.concat "|" (menu_labels p))
      protocols
  in
  let labels =
    List.fold_left
      (fun acc l -> if List.mem l acc then acc else acc @ [ l ])
      [] (List.concat_map menu_labels protocols)
  in
  Arg.(
    value
    & opt string "value-flip"
    & info [ "strategy" ] ~docv:(String.concat "|" labels)
        ~doc:
          (Printf.sprintf
             "What the corrupted nodes do: an entry of the protocol's attack \
              menu, %s."
             (String.concat "; "
                (List.map
                   (fun (menu, ps) ->
                     Printf.sprintf "%s against %s" menu
                       (String.concat ", " (List.map protocol_to_string ps)))
                   groups))))

let trace_t =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the delivery timeline.")

let run_cmd file seed topology adversary knowledge dealer receiver value
    protocol corrupt strategy trace =
  let open Rmt_attack in
  match
    build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
      ~receiver ()
  with
  | Error e -> parse_error "%s" e
  | Ok inst ->
    (* checked on the raw ids: [Nodeset] rejects negative ones itself *)
    let outside =
      List.filter
        (fun v ->
          v < 0
          || (not (Graph.mem_node v inst.graph))
          || v = inst.dealer || v = inst.receiver)
        corrupt
    in
    let menu = Campaign.menu protocol inst.graph ~x_fake:(value + 1) in
    let labels = List.map fst (menu Nodeset.empty) in
    (match (List.mem strategy labels, outside) with
     | false, _ ->
       parse_error "unknown strategy %S for this protocol (%s)" strategy
         (String.concat "|" labels)
     | true, _ :: _ ->
       parse_error
         "--corrupt %s: corrupted nodes must be graph nodes other than the \
          dealer %d and the receiver %d"
         (String.concat "," (List.map string_of_int outside))
         inst.dealer inst.receiver
     | true, [] ->
       let program = List.assoc strategy (menu (Nodeset.of_list corrupt)) in
       (* a run report carries no bits: read them off the outcome *)
       let bits = ref 0 in
       let runner =
         {
           Campaign.run =
             (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph
                  ~adversary auto ->
               let o =
                 Campaign.engine_runner.run ?max_messages ?size_of ?stop_when
                   ?on_deliver ~graph ~adversary auto
               in
               bits := o.stats.bits;
               o);
         }
       in
       let r, rendered =
         if trace then
           Campaign.execute_traced ~runner protocol inst ~x_dealer:value program
         else (Campaign.execute ~runner protocol inst ~x_dealer:value program, "")
       in
       print_string rendered;
       let decided =
         match r.verdict with
         | Campaign.Delivered -> Some value
         | Campaign.Violated x -> Some x
         | Campaign.Silenced -> None
       in
       Printf.printf
         "%s: decided %s  correct=%b  rounds=%d  messages=%d  bits=%d  \
          truncated=%b\n"
         (Campaign.protocol_to_string protocol)
         (dec_str decided)
         (Campaign.verdict_equal r.verdict Campaign.Delivered)
         r.rounds r.messages !bits r.truncated;
       `Ok ())

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack file seed topology adversary knowledge dealer receiver =
  match
    build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
      ~receiver ()
  with
  | Error e -> parse_error "%s" e
  | Ok inst ->
    let verdict = Cut.find_rmt_cut inst in
    (match (verdict.cut_found, Solvability.of_verdict verdict) with
     | None, Solvability.Unknown ->
       Printf.printf
         "RMT-cut search: unknown (budget exhausted); no attack mounted.\n";
       `Ok ()
     | None, _ ->
       Printf.printf
         "No RMT-cut: this instance is solvable, no attack can succeed.\n";
       `Ok ()
     | Some w, _ ->
       Printf.printf "Witness: %s\n" (Format.asprintf "%a" Cut.pp_witness w);
       let show name (v : Attack.verdict) =
         Printf.printf
           "%-10s run e: %-6s run e': %-6s views agree: %-5b safety broken: \
            %-5b truncated: %b\n"
           name (dec_str v.decision_e) (dec_str v.decision_e') v.views_agree
           v.safety_broken v.truncated
       in
       show "RMT-PKA" (Attack.against_rmt_pka inst w ~x0:0 ~x1:1);
       show "Z-CPA" (Attack.against_zcpa inst w ~x0:0 ~x1:1);
       let naive x =
         Rmt_protocols.Naive.first_value inst.graph ~dealer:inst.dealer
           ~receiver:inst.receiver ~x_dealer:x
       in
       show "naive"
         (Attack.co_simulate ~graph:inst.graph ~c1:w.c1 ~c2:w.c2 (naive 0)
            (naive 1) ~receiver:inst.receiver);
       `Ok ())

(* ------------------------------------------------------------------ *)
(* fuzz and sim                                                        *)
(* ------------------------------------------------------------------ *)

(* Run [one] for each selected protocol under one --budget deadline;
   [one] says whether it found (and wrote up) a safety violation. *)
let for_each_protocol ~budget ~written protocols one =
  let deadline =
    if budget <= 0 then None
    else Some (Unix.gettimeofday () +. float_of_int budget)
  in
  let should_stop () =
    match deadline with
    | None -> false
    | Some t -> Unix.gettimeofday () > t
  in
  if List.fold_left (fun found p -> one ~should_stop p || found) false protocols
  then `Error (false, "safety violation found — " ^ written)
  else `Ok ()

let replay_result ~trace ~label (r : Rmt_attack.Replay.t)
    ((report : Rmt_attack.Campaign.run_report), rendered) =
  let open Rmt_attack in
  if trace then print_string rendered;
  Printf.printf "replay %s: verdict %s%s\n" label
    (Campaign.verdict_to_string report.verdict)
    (match r.expected with
     | None -> ""
     | Some v -> Printf.sprintf " (recorded: %s)" (Campaign.verdict_to_string v));
  if Replay.verdict_matches r report then `Ok ()
  else `Error (false, "replayed verdict differs from the recorded one")

(* Shrink the first safety violation to a minimal reproducer and write it
   (plus its rendered trace) where CI can pick it up as an artifact. *)
let write_reproducer inst protocol ~x_dealer (r : Rmt_attack.Campaign.run_report)
    out =
  let open Rmt_attack in
  (* modest eval budget: a reproducer a few steps short of minimal beats a
     CI job stuck re-running an expensive receiver hundreds of times *)
  let inst', program' =
    Shrink.minimize ~budget:150
      ~keep:(Shrink.keep_verdict protocol ~x_dealer ~verdict:r.verdict)
      inst r.program
  in
  let shrunk =
    Campaign.execute protocol inst' ~x_dealer program'
  in
  let replay =
    Replay.make ~expected:shrunk.Campaign.verdict ~protocol ~x_dealer inst'
      program'
  in
  match Replay.to_file out replay with
  | Error e -> Printf.eprintf "cannot write reproducer %s: %s\n" out e
  | Ok () ->
    let _, trace = Replay.replay replay in
    Out_channel.with_open_text (out ^ ".trace") (fun oc ->
        Out_channel.output_string oc trace);
    Printf.printf "reproducer written to %s (trace: %s.trace)\n" out out

let fuzz file seed topology adversary knowledge dealer receiver value protocols
    attacks budget out trace replay_file =
  let open Rmt_attack in
  match replay_file with
  | Some path ->
    (match Replay.of_file path with
     | Error e -> parse_error "%s" e
     | Ok r -> replay_result ~trace ~label:path r (Replay.replay r))
  | None ->
    (match
       build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
         ~receiver ()
     with
     | Error e -> parse_error "%s" e
     | Ok inst ->
       let x_dealer = value in
       for_each_protocol ~budget ~written:"reproducer written" protocols
         (fun ~should_stop p ->
           let report =
             Campaign.run ~should_stop ~x_dealer ~x_fake:(x_dealer + 1) ~seed
               ~attacks p inst
           in
           Printf.printf "%s\n"
             (Format.asprintf "%a" Campaign.pp_report report);
           (match report.safety_violations with
            | [] -> ()
            | (r, ()) :: _ -> write_reproducer inst p ~x_dealer r out);
           (if trace then
              match report.silenced_examples with
              | r :: _ when report.solvability <> Solvability.Solvable ->
                let _, rendered =
                  Campaign.execute_traced p inst ~x_dealer r.program
                in
                Printf.printf
                  "--- trace of a cut-exploiting silencing ---\n%s" rendered
              | _ -> ());
           report.safety_violations <> []))

(* Unlike the fuzz reproducer, the instance and program are kept as found:
   the schedule's sequence numbers are anchored to the exact send pattern
   of this (instance, program) pair, so only the schedule is shrunk. *)
let write_sim_reproducer inst protocol ~x_dealer ~shrink
    ((r : Rmt_attack.Campaign.run_report), sched) out =
  let open Rmt_attack in
  let r', sched' =
    if shrink then
      Rmt_sim.Sweep.shrink_violation ~budget:150 protocol ~x_dealer inst
        (r, sched)
    else (r, sched)
  in
  let replay =
    Replay.make ~expected:r'.Campaign.verdict ~protocol ~x_dealer inst
      r'.Campaign.program
  in
  match Rmt_sim.Sim_exec.write_pair ~rmt:out replay sched' with
  | Error e -> Printf.eprintf "cannot write reproducer %s: %s\n" out e
  | Ok sched_path ->
    Printf.printf "reproducer pair written: %s + %s\n" out sched_path

let sim file seed topology adversary knowledge dealer receiver value protocols
    schedules bound drops late loss budget out trace shrink replay_file =
  match replay_file with
  | Some path ->
    (match Rmt_sim.Sim_exec.load_pair ~rmt:path with
     | Error e -> parse_error "%s" e
     | Ok (r, sched) ->
       replay_result ~trace
         ~label:(path ^ " + " ^ Rmt_sim.Sim_exec.sched_path_of path)
         r
         (Rmt_sim.Sim_exec.replay r sched))
  | None when bound < 1 || bound > Rmt_sim.Schedule.max_bound ->
    parse_error "--bound must be in [1, %d], got %d"
      Rmt_sim.Schedule.max_bound bound
  | None ->
    (match
       let* () = probability "--late" late in
       let* () = probability "--loss" loss in
       build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
         ~receiver ()
     with
     | Error e -> parse_error "%s" e
     | Ok inst ->
       let x_dealer = value in
       (* timely by default: Theorem 4's safety is scheduler-independent
          only while first deliveries stay on the synchronous timetable
          and channels stay reliable, so the 0-violation sweeps of CI run
          there; --bound > 1 and --drops opt into the boundary *)
       let params =
         let base =
           if drops > 0 then
             { Rmt_sim.Policy.default_params with
               Rmt_sim.Policy.drop_budget = drops
             }
           else if bound > 1 then Rmt_sim.Policy.lossless_params
           else Rmt_sim.Policy.timely_params
         in
         let base = { base with Rmt_sim.Policy.delay_bound = bound } in
         let base =
           match late with
           | Some p -> { base with Rmt_sim.Policy.p_late = p }
           | None -> base
         in
         match loss with
         | Some p -> { base with Rmt_sim.Policy.p_drop = p }
         | None -> base
       in
       for_each_protocol ~budget ~written:"reproducer pair written" protocols
         (fun ~should_stop p ->
           let report =
             Rmt_sim.Sweep.run ~should_stop ~x_dealer ~x_fake:(x_dealer + 1)
               ~params ~seed ~schedules p inst
           in
           Printf.printf "%s\n"
             (Format.asprintf "%a" Rmt_sim.Sweep.pp_report report);
           match report.safety_violations with
           | [] -> false
           | v :: _ ->
             write_sim_reproducer inst p ~x_dealer ~shrink v out;
             true))

(* ------------------------------------------------------------------ *)
(* serve-solve                                                         *)
(* ------------------------------------------------------------------ *)

(* Long-lived solvability service: consume a delta/query stream (a file
   with --replay, stdin otherwise) and answer at memoized cost.  One
   output line per command, deterministic — CI pins a golden transcript
   (instances/*.golden).  Exits non-zero if any command errored. *)
let serve_solve file seed topology adversary knowledge dealer receiver
    replay_file budget =
  match
    build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
      ~receiver ()
  with
  | Error e -> parse_error "%s" e
  | Ok inst ->
    let service = Service.create inst in
    let budget = if budget <= 0 then None else Some budget in
    let run ic = Service.replay ?budget service ic stdout in
    let errors =
      match replay_file with
      | None -> run stdin
      | Some path -> In_channel.with_open_text path run
    in
    if errors = 0 then `Ok ()
    else parse_error "%d command(s) failed during the replay" errors

let serve_solve_cmd =
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Read the update/query stream from a file instead of stdin \
             (see lib/core/service.mli for the line protocol).")
  in
  let budget_t =
    Arg.(
      value & opt int 0
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Component-enumeration budget per search; 0 (the default) \
             means exhaustive.")
  in
  Cmd.v
    (Cmd.info "serve-solve"
       ~doc:
         "Run the streaming solvability service over a delta/query stream")
    Term.(
      ret
        (const serve_solve $ file_t $ seed_t $ topology_t $ adversary_t
         $ knowledge_t $ dealer_t $ receiver_t $ replay_t $ budget_t))

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot file seed topology adversary knowledge dealer receiver =
  match
    build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
      ~receiver ()
  with
  | Error e -> parse_error "%s" e
  | Ok inst ->
    print_string
      (Rmt_graph.Dot.instance_dot ~dealer:inst.dealer ~receiver:inst.receiver
         inst.graph);
    `Ok ()

(* ------------------------------------------------------------------ *)
(* Command wiring                                                      *)
(* ------------------------------------------------------------------ *)

let instance_args f =
  Term.(
    ret
      (const f $ file_t $ seed_t $ topology_t $ adversary_t $ knowledge_t
       $ dealer_t $ receiver_t))

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"Feasibility analysis of an RMT instance")
    (instance_args analyze)

let run_command =
  Cmd.v (Cmd.info "run" ~doc:"Run a protocol on a simulated network")
    Term.(
      ret
        (const run_cmd $ file_t $ seed_t $ topology_t $ adversary_t
         $ knowledge_t $ dealer_t $ receiver_t $ value_t $ protocol_t
         $ corrupt_t $ strategy_t $ trace_t))

let attack_cmd =
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Mount the two-face indistinguishability attack (Fig 2)")
    (instance_args attack)

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit the instance graph as Graphviz")
    (instance_args dot)

(* --protocol for fuzz and sim: each protocol of the campaign table by
   name (the strawman only where [strawman]), plus the certified and all
   groups; all is the default. *)
let sweep_protocols_t ~strawman =
  let open Rmt_attack.Campaign in
  let single =
    List.filter_map
      (fun p ->
        match p with
        | Strawman when not strawman -> None
        | _ -> Some (protocol_to_string p, [ p ]))
      protocols
  in
  let all = [ Pka; Ppa; Zcpa ] in
  let choices =
    single @ [ ("certified", [ Cert_pka; Cert_ppa ]); ("all", all) ]
  in
  Arg.(
    value
    & opt (enum choices) all
    & info [ "protocol" ] ~docv:(String.concat "|" (List.map fst choices)))

let sweep_budget_t ~runs =
  Arg.(
    value & opt int 0
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:("Wall-clock budget; 0 means run all " ^ runs ^ "."))

let fuzz_cmd =
  let attacks_t =
    Arg.(
      value & opt int 200
      & info [ "attacks" ] ~docv:"N" ~doc:"Attack programs per protocol.")
  in
  let out_t =
    Arg.(
      value
      & opt string "fuzz_reproducer.rmt"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk reproducer on a safety violation.")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a reproducer file instead of running a campaign.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a seeded adversarial fuzzing campaign (or replay a reproducer); \
          exits non-zero on any safety violation")
    Term.(
      ret
        (const fuzz $ file_t $ seed_t $ topology_t $ adversary_t $ knowledge_t
         $ dealer_t $ receiver_t $ value_t $ sweep_protocols_t ~strawman:false
         $ attacks_t
         $ sweep_budget_t ~runs:"$(b,--attacks) programs"
         $ out_t $ trace_t $ replay_t))

let sim_cmd =
  let schedules_t =
    Arg.(
      value & opt int 200
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Seeded (program, schedule) trials per protocol.")
  in
  let bound_t =
    Arg.(
      value & opt int 1
      & info [ "bound" ] ~docv:"B"
          ~doc:
            "Delay bound for the random delivery policy.  1 (the default) \
             keeps every first delivery on the synchronous timetable, where \
             protocol safety is guaranteed; larger bounds (up to 64) explore \
             genuinely asynchronous schedules, where RMT-PKA safety can \
             fail.")
  in
  let drops_t =
    Arg.(
      value & opt int 0
      & info [ "drops" ] ~docv:"N"
          ~doc:
            "Per-schedule message-loss budget.  0 (the default) keeps \
             channels reliable, matching the paper's model; positive \
             values explore lossy schedules, where RMT-PKA safety is no \
             longer guaranteed.")
  in
  let late_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "late" ] ~docv:"P"
          ~doc:
            "Override the per-message late-delivery probability, in [0, 1] \
             (effective only with $(b,--bound) > 1).  Aggressive values \
             push multi-hop evidence past a certified protocol's commit \
             round — the boundary lanes drive the out-of-envelope sweeps \
             with this.")
  in
  let loss_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "loss" ] ~docv:"P"
          ~doc:
            "Override the per-message drop probability, in [0, 1] (effective \
             only with $(b,--drops) > 0; the budget still caps total \
             losses).  High values concentrate the budget on the earliest \
             sends, where a drop suppresses a whole flood subtree.")
  in
  let out_t =
    Arg.(
      value
      & opt string "sim_reproducer.rmt"
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Where to write the reproducer pair on a safety violation (the \
             schedule lands next to it with a .sched extension).")
  in
  let shrink_t =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize a violating schedule before writing the pair.")
  in
  let replay_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a reproducer pair (FILE.rmt + FILE.sched) instead of \
             running a sweep.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Run protocols on the asynchronous simulator under seeded \
          adversarial schedules (or replay a reproducer pair); exits \
          non-zero on any safety violation")
    Term.(
      ret
        (const sim $ file_t $ seed_t $ topology_t $ adversary_t $ knowledge_t
         $ dealer_t $ receiver_t $ value_t $ sweep_protocols_t ~strawman:true
         $ schedules_t $ bound_t $ drops_t $ late_t $ loss_t
         $ sweep_budget_t ~runs:"$(b,--schedules) trials"
         $ out_t $ trace_t
         $ shrink_t $ replay_t))

let save file seed topology adversary knowledge dealer receiver out =
  match
    build_instance ?file ~seed ~topology ~adversary ~knowledge ~dealer
      ~receiver ()
  with
  | Error e -> parse_error "%s" e
  | Ok inst ->
    (match Codec.to_file out inst with
     | Ok () ->
       Printf.printf "wrote %s\n" out;
       `Ok ()
     | Error e -> parse_error "%s" e)

let save_cmd =
  let out_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize the instance described by the specs")
    Term.(
      ret
        (const save $ file_t $ seed_t $ topology_t $ adversary_t $ knowledge_t
         $ dealer_t $ receiver_t $ out_t))

let () =
  let info =
    Cmd.info "rmt" ~version:"1.0.0"
      ~doc:
        "Reliable Message Transmission under partial knowledge and general \
         adversaries (Pagourtzis, Panagiotakos, Sakavalas)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; run_command; attack_cmd; fuzz_cmd; sim_cmd;
            serve_solve_cmd; dot_cmd; save_cmd ]))
