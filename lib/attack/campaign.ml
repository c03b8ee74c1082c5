open Rmt_base
open Rmt_knowledge
open Rmt_net
open Rmt_core
open Rmt_workloads

type protocol = Pka | Ppa | Zcpa | Strawman | Cert_pka | Cert_ppa | Zcpa_sim

let protocols = [ Pka; Ppa; Zcpa; Strawman; Cert_pka; Cert_ppa; Zcpa_sim ]

let protocol_to_string = function
  | Pka -> "pka"
  | Ppa -> "ppa"
  | Zcpa -> "zcpa"
  | Strawman -> "strawman"
  | Cert_pka -> "cert-pka"
  | Cert_ppa -> "cert-ppa"
  | Zcpa_sim -> "zcpa-sim"

let protocol_of_string s =
  match
    List.find_opt (fun p -> String.equal (protocol_to_string p) s) protocols
  with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown protocol %S (%s)" s
         (String.concat "|" (List.map protocol_to_string protocols)))

type verdict =
  | Delivered
  | Silenced
  | Violated of int

let verdict_to_string = function
  | Delivered -> "delivered"
  | Silenced -> "silenced"
  | Violated x -> Printf.sprintf "violated %d" x

let verdict_equal a b =
  match (a, b) with
  | Delivered, Delivered | Silenced, Silenced -> true
  | Violated x, Violated y -> x = y
  | (Delivered | Silenced | Violated _), _ -> false

type run_report = {
  program : Program.t;
  verdict : verdict;
  rounds : int;
  messages : int;
  truncated : bool;
}

type classification = Safe | Liveness_lost | Safety_violation

let classification_to_string = function
  | Safe -> "safe"
  | Liveness_lost -> "liveness-lost"
  | Safety_violation -> "SAFETY-VIOLATION"

let classify ~solvability ~admissible r =
  match r.verdict with
  | Violated _ -> if admissible then Safety_violation else Safe
  | Delivered -> Safe
  | Silenced ->
    if
      Solvability.is_solvable solvability
      && admissible
      && not r.truncated
    then Liveness_lost
    else Safe

let reproduces ~verdict r =
  match (verdict, r.verdict) with
  | Delivered, Delivered | Violated _, Violated _ -> true
  | Silenced, Silenced -> not r.truncated
  | (Delivered | Silenced | Violated _), _ -> false

(* ------------------------------------------------------------------ *)
(* The protocol table                                                  *)
(* ------------------------------------------------------------------ *)

let trail_summary trail =
  Printf.sprintf "<%s>" (String.concat "," (List.map string_of_int trail))

let pp_pka_msg (m : Rmt_pka.msg) =
  match m.Flood.payload with
  | Rmt_pka.Value x -> Printf.sprintf "V%d%s" x (trail_summary m.Flood.trail)
  | Rmt_pka.Info r ->
    Printf.sprintf "I(%d)%s" r.Rmt_pka.origin (trail_summary m.Flood.trail)

let pp_ppa_msg (m : Rmt_protocols.Ppa.msg) =
  Printf.sprintf "%d%s" m.Flood.payload (trail_summary m.Flood.trail)

(* a certified message prints as its inner message prefixed with "c" *)
let pp_cert_msg pp_inner (m : _ Rmt_protocols.Certified.msg) =
  match m.Flood.payload with
  | Rmt_protocols.Certified.Load p ->
    "c" ^ pp_inner { Flood.payload = p; trail = m.Flood.trail }
  | Rmt_protocols.Certified.Echo u ->
    Printf.sprintf "E(%d)%s" u (trail_summary m.Flood.trail)
  | Rmt_protocols.Certified.Tick -> "tick"

(* Everything that differs between protocols, in one record per
   protocol: [execute] and [solvability] read nothing else. *)
type ('s, 'm) spec = {
  automaton : Instance.t -> x_dealer:int -> ('s, 'm) Engine.automaton;
      (** the honest nodes' automaton, mimicked by corrupted ones *)
  vocabulary : Instance.t -> 'm Strategy_gen.vocabulary;
      (** what a program's injections compile to *)
  size_of : ('m -> int) option;
  stop_on_decision : bool;
      (** end the run once the receiver has decided *)
  receiver_truncated : ('s -> bool) option;
      (** a receiver-side search budget ran out *)
  pp_msg : 'm -> string;  (** trace payload summary *)
  decider : Instance.t -> Solvability.feasibility;
  menu :
    Rmt_graph.Graph.t -> x_fake:int -> Nodeset.t -> (string * Program.t) list;
      (** the labelled attack menu of the battery and [rmt run] *)
}

type spec_packed = Spec : ('s, 'm) spec -> spec_packed

let ppa_solvability (inst : Instance.t) =
  if
    Rmt_protocols.Ppa.solvable inst.graph ~structure:inst.structure
      ~dealer:inst.dealer ~receiver:inst.receiver
  then Solvability.Solvable
  else Solvability.Unsolvable

(* Z-CPA and zcpa-sim differ only in the rule-2 subroutine *)
let zcpa_spec decider =
  Spec
    {
      automaton =
        (fun inst ~x_dealer ->
          Zcpa.automaton ~decider:(decider inst) inst ~x_dealer);
      vocabulary = Strategy_gen.ints;
      size_of = None;
      stop_on_decision = false;
      receiver_truncated = None;
      pp_msg = string_of_int;
      decider = Solvability.ad_hoc;
      menu = Strategy_gen.value_menu;
    }

let spec = function
  | Pka ->
    Spec
      {
        automaton = (fun inst ~x_dealer -> Rmt_pka.automaton inst ~x_dealer);
        vocabulary = Strategy_gen.pka;
        size_of = Some Rmt_pka.msg_size;
        stop_on_decision = true;
        receiver_truncated = Some Rmt_pka.search_truncated;
        pp_msg = pp_pka_msg;
        decider = Solvability.partial_knowledge;
        menu = Strategy_gen.pka_menu;
      }
  | Ppa ->
    Spec
      {
        automaton =
          (fun (inst : Instance.t) ~x_dealer ->
            Rmt_protocols.Ppa.automaton inst.graph ~structure:inst.structure
              ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer);
        vocabulary = Strategy_gen.ppa;
        size_of = Some Rmt_protocols.Ppa.msg_size;
        stop_on_decision = true;
        receiver_truncated = None;
        pp_msg = pp_ppa_msg;
        decider = ppa_solvability;
        menu = Strategy_gen.pka_menu;
      }
  | Zcpa ->
    zcpa_spec (fun inst -> Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
  | Strawman ->
    Spec
      {
        automaton =
          (fun (inst : Instance.t) ~x_dealer ->
            Rmt_protocols.Naive.first_delivery inst.graph ~dealer:inst.dealer
              ~receiver:inst.receiver ~x_dealer);
        vocabulary = Strategy_gen.ints;
        size_of = None;
        stop_on_decision = true;
        receiver_truncated = None;
        pp_msg = string_of_int;
        (* the strawman decides wherever PKA could: classify its
           (expected) wrong outputs as violations exactly on PKA-solvable
           instances *)
        decider = Solvability.partial_knowledge;
        menu = Strategy_gen.value_menu;
      }
  | Cert_pka ->
    Spec
      {
        automaton =
          (fun inst ~x_dealer -> Rmt_protocols.Certified.pka inst ~x_dealer);
        vocabulary = Strategy_gen.cert_pka;
        size_of = Some Rmt_protocols.Certified.pka_msg_size;
        stop_on_decision = true;
        receiver_truncated = Some Rmt_protocols.Certified.truncated;
        pp_msg = pp_cert_msg pp_pka_msg;
        (* certification gates the inner decision; within the envelope
           the wrapped protocol's own feasibility condition applies *)
        decider = Solvability.partial_knowledge;
        menu = Strategy_gen.pka_menu;
      }
  | Cert_ppa ->
    Spec
      {
        automaton =
          (fun (inst : Instance.t) ~x_dealer ->
            Rmt_protocols.Certified.ppa inst.graph ~structure:inst.structure
              ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer);
        vocabulary = Strategy_gen.cert_ppa;
        size_of = Some Rmt_protocols.Certified.ppa_msg_size;
        stop_on_decision = true;
        receiver_truncated = None;
        pp_msg = pp_cert_msg pp_ppa_msg;
        decider = ppa_solvability;
        menu = Strategy_gen.pka_menu;
      }
  | Zcpa_sim -> zcpa_spec (fun inst -> Self_reduction.simulated_decider inst)

let solvability protocol inst =
  match spec protocol with Spec s -> s.decider inst

let menu protocol = match spec protocol with Spec s -> s.menu

(* ------------------------------------------------------------------ *)
(* Executing one program                                               *)
(* ------------------------------------------------------------------ *)

(* An execution backend with [Engine.run]'s interface.  The polymorphic
   field lets one runner value serve every protocol's message type, so
   alternative runtimes (the discrete-event simulator in lib/sim) plug
   into [execute] unchanged. *)
type runner = {
  run :
    's 'm.
    ?max_messages:int ->
    ?size_of:('m -> int) ->
    ?stop_when:((int -> int option) -> bool) ->
    ?on_deliver:(round:int -> src:int -> dst:int -> 'm -> unit) ->
    graph:Rmt_graph.Graph.t ->
    adversary:'m Engine.strategy ->
    ('s, 'm) Engine.automaton ->
    ('s, 'm) Engine.outcome;
}

let engine_runner =
  {
    run =
      (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph ~adversary
           auto ->
        Engine.run ?max_messages ?size_of ?stop_when ?on_deliver ~graph
          ~adversary auto);
  }

let verdict_of ~x_dealer = function
  | None -> Silenced
  | Some x when x = x_dealer -> Delivered
  | Some x -> Violated x

(* The one run body.  Untraced runs pass no delivery hook at all, so the
   backend's per-delivery path is the bare one; their rendered trace is
   empty. *)
let execute_gen ?(runner = engine_runner) ~traced protocol (inst : Instance.t)
    ~x_dealer (p : Program.t) =
  match spec protocol with
  | Spec s ->
    let auto = s.automaton inst ~x_dealer in
    let adversary = Strategy_gen.compile p auto (s.vocabulary inst) in
    let trace =
      if traced then Some (Trace.create ~pp_payload:s.pp_msg ()) else None
    in
    let stop_when =
      if s.stop_on_decision then Some (fun dec -> dec inst.receiver <> None)
      else None
    in
    let outcome =
      runner.run ?size_of:s.size_of ?stop_when
        ?on_deliver:(Option.map snd trace) ~graph:inst.graph ~adversary auto
    in
    let receiver_truncated =
      match
        (s.receiver_truncated, List.assoc_opt inst.receiver outcome.states)
      with
      | Some probe, Some st -> probe st
      | _ -> false
    in
    ( {
        program = p;
        verdict = verdict_of ~x_dealer (Engine.decision_of outcome inst.receiver);
        rounds = outcome.stats.rounds;
        messages = outcome.stats.messages;
        truncated = outcome.stats.truncated || receiver_truncated;
      },
      match trace with
      | Some (t, _) -> Trace.render t
      | None -> "" )

let execute ?runner protocol inst ~x_dealer p =
  fst (execute_gen ?runner ~traced:false protocol inst ~x_dealer p)

let execute_traced ?runner protocol inst ~x_dealer p =
  execute_gen ?runner ~traced:true protocol inst ~x_dealer p

(* ------------------------------------------------------------------ *)
(* Trial loops                                                         *)
(* ------------------------------------------------------------------ *)

type 'w report = {
  protocol : protocol;
  seed : int;
  trials : int;
  solvability : Solvability.feasibility;
  delivered : int;
  silenced : int;
  violated : int;
  truncated : int;
  liveness_lost : int;
  safety_violations : (run_report * 'w) list;
  silenced_examples : run_report list;
  max_rounds_seen : int;
  total_messages : int;
  stopped_early : bool;
}

let max_examples = 5

(* trials drawn and fanned out per [should_stop] poll *)
let batch = 16

let run_trials ?domains ?(should_stop = fun () -> false) ~draw
    ~exec ~solvability:solv ~seed ~trials protocol (inst : Instance.t) =
  let rng = Prng.create seed in
  let executed = ref 0
  and delivered = ref 0
  and silenced = ref 0
  and violated = ref 0
  and truncated = ref 0
  and liveness_lost = ref 0
  and violations = ref []
  and silenced_ex = ref []
  and max_rounds_seen = ref 0
  and total_messages = ref 0
  and stopped = ref false in
  while (not !stopped) && !executed < trials do
    let n = min batch (trials - !executed) in
    (* trials are drawn sequentially before the fan-out, so the report
       is independent of [domains] *)
    let drawn = Array.init n (fun _ -> draw rng) in
    let results = Parsweep.map ?domains exec drawn in
    Array.iter
      (fun ((r, _) as found) ->
        incr executed;
        max_rounds_seen := max !max_rounds_seen r.rounds;
        total_messages := !total_messages + r.messages;
        if r.truncated then incr truncated;
        let admissible =
          Instance.admissible inst (Program.corrupted r.program)
        in
        (match classify ~solvability:solv ~admissible r with
         | Safety_violation -> violations := found :: !violations
         | Liveness_lost -> incr liveness_lost
         | Safe -> ());
        match r.verdict with
        | Delivered -> incr delivered
        | Violated _ -> incr violated
        | Silenced ->
          incr silenced;
          if
            (not r.truncated)
            && (not (Nodeset.is_empty (Program.corrupted r.program)))
            && List.length !silenced_ex < max_examples
          then silenced_ex := r :: !silenced_ex)
      results;
    if should_stop () then stopped := true
  done;
  {
    protocol;
    seed;
    trials = !executed;
    solvability = solv;
    delivered = !delivered;
    silenced = !silenced;
    violated = !violated;
    truncated = !truncated;
    liveness_lost = !liveness_lost;
    safety_violations = List.rev !violations;
    silenced_examples = List.rev !silenced_ex;
    max_rounds_seen = !max_rounds_seen;
    total_messages = !total_messages;
    stopped_early = !stopped;
  }

let run ?domains ?should_stop ?(x_dealer = 7) ?(x_fake = 8) ~seed ~attacks
    protocol inst =
  run_trials ?domains ?should_stop ~seed ~trials:attacks protocol inst
    ~solvability:(solvability protocol inst)
    ~draw:(fun rng -> Strategy_gen.random rng inst ~x_dealer ~x_fake)
    ~exec:(fun p -> (execute protocol inst ~x_dealer p, ()))

let battery_programs protocol (inst : Instance.t) ~x_fake =
  ("honest", Program.make ~seed:Strategy_gen.menu_seed [])
  :: List.concat_map
       (fun z ->
         if Nodeset.is_empty z || Nodeset.mem inst.receiver z then []
         else menu protocol inst.graph ~x_fake z)
       (Instance.corruption_sets inst)

let battery protocol inst ~x_dealer ~x_fake =
  let trials = Array.of_list (battery_programs protocol inst ~x_fake) in
  (* the trials are fixed: [draw] walks them in order *)
  let next = ref 0 in
  (* callers decide solvability themselves when they need it *)
  run_trials ~domains:1 ~seed:Strategy_gen.menu_seed
    ~trials:(Array.length trials) protocol inst ~solvability:Solvability.Unknown
    ~draw:(fun _ ->
      let t = trials.(!next) in
      incr next;
      t)
    ~exec:(fun (label, p) -> (execute protocol inst ~x_dealer p, label))

let pp_trials ~title ~count ppf r =
  Format.fprintf ppf
    "@[<v>%s %s: seed=%d %s=%d (%a)%s@,\
     delivered %d | silenced %d | violated %d | truncated %d@,\
     liveness lost %d | safety violations %d@,\
     max rounds %d | total messages %d@]"
    (protocol_to_string r.protocol)
    title r.seed count r.trials Solvability.pp_feasibility r.solvability
    (if r.stopped_early then " [stopped early]" else "")
    r.delivered r.silenced r.violated r.truncated r.liveness_lost
    (List.length r.safety_violations)
    r.max_rounds_seen r.total_messages

let pp_report ppf r = pp_trials ~title:"campaign" ~count:"attacks" ppf r
