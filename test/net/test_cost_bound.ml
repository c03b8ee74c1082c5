(* Dynamic half of the R10 communication budget: replay every protocol
   honestly and check the observed Transport.stats against the bound
   rmt-lint extracted statically from the typedtrees.

   The static side (lib/lint/model.ml) claims each automaton's init and
   step send at most a symbolic per-activation budget over
   {1, deg(v), n, |inbox|, |inbox|·deg(v)}.  Under the synchronous
   engine the claim concretizes round by round: messages delivered in
   round 1 are exactly the init sends, and messages delivered in round
   r ≥ 2 are the step sends of round r−1, whose inboxes together held
   per_round.(r−1) messages.  So for every executed round,

     per_round.(1) ≤ concretize init  ~prev:0
     per_round.(r) ≤ concretize step  ~prev:per_round.(r−1)   (r ≥ 2)

   must hold on the real implementations — on every checked-in instance
   and on 40 random PKA-solvable instances.  A protocol change that
   breaks its extracted budget (or an extractor change that tightens a
   bound below reality) fails here, not in production accounting. *)

open Rmt_graph
open Rmt_knowledge
open Rmt_net

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* The static models, read back from the cmt artifacts dune built      *)
(* for lib/ — the same scan the production [rmt_lint model] runs.      *)
(* ------------------------------------------------------------------ *)

let model =
  match Rmt_lint.Cmt_loader.scan ~build_dir:"../.." ~dirs:[ "lib" ] with
  | Error e -> fail "lib cmt scan failed (run dune build @check): %s" e
  | Ok units ->
    Rmt_lint.Model.assemble
      (List.map
         (fun (u : Rmt_lint.Cmt_loader.unit_info) ->
           Rmt_lint.Model.extract ~source:u.source u.structure)
         units)

let proto name =
  match Rmt_lint.Model.find model name with
  | Some p ->
    let open Rmt_lint.Model in
    if p.p_init.b_unbounded || p.p_step.b_unbounded then
      fail "%s: static bound is unbounded — the dynamic check is vacuous"
        name;
    p
  | None ->
    fail "no extracted model for %s (have: %s)" name
      (String.concat ", "
         (List.map
            (fun (p : Rmt_lint.Model.protocol) -> p.Rmt_lint.Model.p_name)
            model.Rmt_lint.Model.protocols))

(* The certified wrapper's extracted budget is load-bearing for R10:
   the [Envelope.slots] iteration must be recognized and capped at the
   pinned [slots_cap] multiplier, not degraded to unbounded.  Pin the
   rendered bounds so an extractor or protocol change that shifts the
   multiplicity class fails loudly here. *)
let () =
  let p = proto "Certified.make" in
  let expect side got want =
    if got <> want then
      fail "Certified.make %s bound drifted: %S (want %S)" side got want
  in
  expect "init"
    (Rmt_lint.Model.bound_to_string p.Rmt_lint.Model.p_init)
    "1 + 12·deg(v)";
  expect "step"
    (Rmt_lint.Model.bound_to_string p.Rmt_lint.Model.p_step)
    "|inbox| + 4·|inbox|·deg(v)"

(* ------------------------------------------------------------------ *)
(* One honest run, checked round by round                              *)
(* ------------------------------------------------------------------ *)

let checked_runs = ref 0
let checked_rounds = ref 0

let check_stats ~who ~graph ~(p : Rmt_lint.Model.protocol) ~max_size
    (stats : Engine.stats) =
  let num_nodes = Graph.num_nodes graph in
  let sum_deg = 2 * Graph.num_edges graph in
  let max_deg =
    Rmt_base.Nodeset.fold
      (fun v acc -> max acc (Graph.degree v graph))
      (Graph.nodes graph) 0
  in
  let concretize b ~prev =
    Rmt_lint.Model.concretize b ~num_nodes ~sum_deg ~max_deg ~prev
  in
  let pr = stats.Engine.per_round in
  if Array.length pr > 0 && pr.(0) <> 0 then
    fail "%s: round 0 delivered %d messages" who pr.(0);
  for r = 1 to Array.length pr - 1 do
    let bound, side =
      if r = 1 then (concretize p.Rmt_lint.Model.p_init ~prev:0, "init")
      else (concretize p.Rmt_lint.Model.p_step ~prev:pr.(r - 1), "step")
    in
    if pr.(r) > bound then
      fail "%s: round %d delivered %d messages, %s bound %s allows %d" who r
        pr.(r) side
        (Rmt_lint.Model.bound_to_string
           (if r = 1 then p.Rmt_lint.Model.p_init else p.Rmt_lint.Model.p_step))
        bound;
    incr checked_rounds
  done;
  let total = Array.fold_left ( + ) 0 pr in
  if total <> stats.Engine.messages then
    fail "%s: per-round sum %d <> messages %d" who total stats.Engine.messages;
  (* Bit complexity ties back to the same budget: no message outgrows
     the largest size the size function reported. *)
  if stats.Engine.bits > stats.Engine.messages * max_size then
    fail "%s: %d bits exceed %d messages x max size %d" who stats.Engine.bits
      stats.Engine.messages max_size;
  incr checked_runs

(* Wraps a size function so the largest delivered message is recorded. *)
let sizer size_of =
  let max_size = ref 1 in
  let f m =
    let s = size_of m in
    if s > !max_size then max_size := s;
    s
  in
  (f, max_size)

let run_checked ~who ~graph ~p ~size_of automaton =
  let size_of, max_size = sizer size_of in
  let outcome =
    Engine.run ~size_of ~graph ~adversary:Engine.no_adversary automaton
  in
  check_stats ~who ~graph ~p ~max_size:!max_size outcome.Engine.stats

(* ------------------------------------------------------------------ *)
(* The protocol roster: every runnable automaton the model covers      *)
(* ------------------------------------------------------------------ *)

let trail_size (m : 'p Flood.msg) = 1 + List.length m.Flood.trail

let check_instance name (inst : Instance.t) =
  let graph = inst.Instance.graph in
  let dealer = inst.Instance.dealer in
  let receiver = inst.Instance.receiver in
  let x_dealer = 7 in
  let who proto = Printf.sprintf "%s on %s" proto name in
  run_checked ~who:(who "Rmt_pka") ~graph ~p:(proto "Rmt_pka.automaton")
    ~size_of:Rmt_core.Rmt_pka.msg_size
    (Rmt_core.Rmt_pka.automaton inst ~x_dealer);
  run_checked ~who:(who "Ppa") ~graph ~p:(proto "Ppa.automaton")
    ~size_of:trail_size
    (Rmt_protocols.Ppa.automaton graph ~structure:inst.Instance.structure
       ~dealer ~receiver ~x_dealer);
  run_checked ~who:(who "Zcpa") ~graph ~p:(proto "Zcpa.automaton")
    ~size_of:(fun _ -> 1)
    (Rmt_core.Zcpa.automaton
       ~decider:(Rmt_core.Zcpa.decider_of_oracle (Rmt_core.Zcpa.direct_oracle inst))
       inst ~x_dealer);
  run_checked ~who:(who "Cpa") ~graph ~p:(proto "Cpa.automaton")
    ~size_of:(fun _ -> 1)
    (Rmt_protocols.Cpa.automaton graph ~dealer ~receiver ~t:1 ~x_dealer);
  run_checked ~who:(who "Dolev") ~graph ~p:(proto "Dolev.automaton")
    ~size_of:trail_size
    (Rmt_protocols.Dolev.automaton graph ~dealer ~receiver ~x_dealer);
  run_checked ~who:(who "Naive.first_delivery") ~graph
    ~p:(proto "Naive.first_delivery")
    ~size_of:(fun _ -> 1)
    (Rmt_protocols.Naive.first_delivery graph ~dealer ~receiver ~x_dealer);
  (* first_value and neighbor_majority share the Naive.make skeleton —
     one extracted model, two receivers. *)
  run_checked ~who:(who "Naive.first_value") ~graph ~p:(proto "Naive.make")
    ~size_of:(fun _ -> 1)
    (Rmt_protocols.Naive.first_value graph ~dealer ~receiver ~x_dealer);
  run_checked ~who:(who "Naive.neighbor_majority") ~graph
    ~p:(proto "Naive.make")
    ~size_of:(fun _ -> 1)
    (Rmt_protocols.Naive.neighbor_majority graph ~dealer ~receiver ~x_dealer);
  (* Certified wrapper: pka and ppa instantiations share the
     Certified.make skeleton — one extracted model, the slots-capped
     echo/vote budget (R10) checked dynamically on both. *)
  run_checked ~who:(who "Certified.pka") ~graph ~p:(proto "Certified.make")
    ~size_of:Rmt_protocols.Certified.pka_msg_size
    (Rmt_protocols.Certified.pka inst ~x_dealer);
  run_checked ~who:(who "Certified.ppa") ~graph ~p:(proto "Certified.make")
    ~size_of:Rmt_protocols.Certified.ppa_msg_size
    (Rmt_protocols.Certified.ppa graph ~structure:inst.Instance.structure
       ~dealer ~receiver ~x_dealer)

(* ------------------------------------------------------------------ *)
(* Corpus: every checked-in instance plus 40 random solvable ones      *)
(* ------------------------------------------------------------------ *)

let instances_dir = "../../instances"

let repo_instances () =
  Sys.readdir instances_dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat instances_dir f) with
         | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
         | Error e -> fail "cannot load %s: %s" f e)

let random_instances n =
  let rec go seed acc =
    if List.length acc = n then List.rev acc
    else if seed > 40 * n then
      fail "only %d/%d random solvable instances in %d seeds"
        (List.length acc) n seed
    else
      match Rmt_test_gen.Gen.random_solvable_instance seed with
      | Some inst -> go (seed + 1) ((Printf.sprintf "seed%d" seed, inst) :: acc)
      | None -> go (seed + 1) acc
  in
  go 0 []

let () =
  let repo = repo_instances () in
  if repo = [] then fail "no .rmt instances under %s" instances_dir;
  let corpus = repo @ random_instances 40 in
  List.iter (fun (name, inst) -> check_instance name inst) corpus;
  Printf.printf
    "cost bounds: %d runs over %d instances (%d rounds) within the static \
     budget\n"
    !checked_runs (List.length corpus) !checked_rounds
