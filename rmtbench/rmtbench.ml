(* End-to-end benchmark: four closed-loop, single-thread workloads driven
   through the libraries' public API.

     rmtbench.exe --workload solve|serve|attack|certified --seed N
                  --seconds S --trace 0|1 [--spans FILE]

   A workload is a fixed list of ops generated from the seed, long enough
   that a run of a few seconds executes a prefix of it.  The timed loop
   runs the list from the start, in passes, until the time is up; before
   every pass the hash-consing memos are dropped ([Hc.clear]) and
   per-pass state (the service) is rebuilt, so an op does the same work
   in every pass.  Results and per-op counters must repeat exactly every
   time an op runs again; correctness checks run after each pass,
   outside the timed region.

   --trace 0 prints the end-to-end metrics; --trace 1 warms up for a
   tenth of the time, then spends equal halves of the rest untraced and
   with spans around every layer call, and prints the per-layer
   metrics.  The last stdout line is one JSON object. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_attack
module Sim_exec = Rmt_sim.Sim_exec
module Policy = Rmt_sim.Policy

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* ------------------------------------------------------------------ *)
(* Span names: one per layer boundary the benchmark calls across       *)
(* ------------------------------------------------------------------ *)

let sp_op = Span.name "op"
let sp_cut_rmt = Span.name "cut.rmt"
let sp_cut_zpp = Span.name "cut.zpp"
let sp_apply = Span.name "service.apply"
let sp_query = Span.name "service.query"
let sp_campaign = Span.name "campaign.build"
let sp_engine = Span.name "engine"
let sp_sim = Span.name "sim"
let sp_step = Span.name "protocol.step"
let sp_decision = Span.name "protocol.decision"
let sp_act = Span.name "adversary.act"

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  ops : int;  (** length of the op list *)
  reset : unit -> unit;  (** untimed, before every pass *)
  op : int -> unit;  (** the timed call; stores its result *)
  after : int -> unit;  (** untimed, right after op [i]: fills [tally] *)
  verify : int -> bool;
      (** full check of op [i]'s stored result: [false] is a failed op,
          a wrong verdict or safety violation raises [Wrong] *)
  digest : int -> int;  (** fingerprint of op [i]'s stored result *)
  tally : (string * int array) list;  (** deterministic counters per op *)
  label : int -> string;  (** op class, for the time-share table *)
  summary : unit -> string;  (** outcome split of the checked ops *)
}

let incr_key tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let render_keys tbl =
  Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) tbl []
  |> List.sort compare |> String.concat " "

let feas_to_string f = Format.asprintf "%a" Solvability.pp_feasibility f

(* solve: the one-shot [rmt analyze] path on distinct random instances.
   n = 14 keeps the per-verdict tail to a few ms while the cut
   enumeration still does the work. *)
let solve_n = 14

let solve_count = 16000

let solve ~seed =
  let suite =
    Array.of_list
      (Rmt_workloads.Workload.tightness_suite (Prng.create seed)
         ~count:solve_count ~n:solve_n)
  in
  let sampled =
    let rng = Prng.create (seed + 1) in
    Array.init solve_count (fun _ -> Prng.int rng 200 = 0)
  in
  let none = { Cut.cut_found = None; complete = false; visited = 0 } in
  let rmt = Array.make solve_count none in
  let zpp = Array.make solve_count none in
  let visited = Array.make solve_count 0 in
  let outcomes = Hashtbl.create 8 in
  let instance i = suite.(i).Rmt_workloads.Workload.instance in
  let op i =
    let inst = instance i in
    rmt.(i) <- Span.record sp_cut_rmt (fun () -> Cut.find_rmt_cut inst);
    zpp.(i) <- Span.record sp_cut_zpp (fun () -> Cut.find_rmt_zpp_cut inst)
  in
  let verify i =
    let inst = instance i in
    let one kind (v : Cut.verdict) is_cut =
      let f = Solvability.of_verdict v in
      incr_key outcomes (kind ^ ":" ^ feas_to_string f);
      (match v.cut_found with
       | Some w when not (is_cut inst w.Cut.c1 w.Cut.c2) ->
         wrong "solve op %d: %s witness fails its definition" i kind
       | _ -> ());
      not (Solvability.feasibility_equal f Solvability.Unknown)
    in
    let ok_rmt = one "rmt" rmt.(i) Cut.is_rmt_cut in
    let ok_zpp = one "zpp" zpp.(i) Cut.is_rmt_zpp_cut in
    (if sampled.(i) then
       let naive = Cut.find_rmt_cut_naive inst in
       if
         naive.complete && rmt.(i).complete
         && Option.is_some naive.cut_found <> Option.is_some rmt.(i).cut_found
       then wrong "solve op %d: verdict disagrees with the naive decider" i);
    ok_rmt && ok_zpp
  in
  {
    ops = solve_count;
    reset = ignore;
    op;
    after = (fun i -> visited.(i) <- rmt.(i).visited + zpp.(i).visited);
    verify;
    digest =
      (fun i ->
        Hashtbl.hash
          (Option.is_some rmt.(i).cut_found, Option.is_some zpp.(i).cut_found));
    tally = [ ("cut.visited", visited) ];
    label = (fun i -> suite.(i).Rmt_workloads.Workload.label);
    summary = (fun () -> render_keys outcomes);
  }

(* serve: one long-lived Service over a layered 4x3 instance with
   radius-1 views, driven by a fixed stream of update+query round trips
   and repeated queries.  The stream is generated from the seed and the
   starting instance alone (every delta validated by [Delta.apply] at
   generation time), never from the service's answers. *)
type serve_op =
  | Update of Delta.t
  | Query

let serve_width = 4

let serve_depth = 3

let serve_len = 48000

let serve_pairs = 4

(* every k-th op is cross-checked against a from-scratch decision *)
let serve_check_every = 10

(* Topology edits stay on the dealer side of the starting witness, so
   they leave the cut region (and the witness) untouched: these are the
   dealer-side node pairs without an edge. *)
let dealer_side_pairs (inst : Instance.t) (w : Cut.witness) =
  let g = inst.graph in
  let far =
    Nodeset.elements
      (Nodeset.diff (Graph.nodes g) (Nodeset.union w.b_side w.cut))
  in
  List.concat_map
    (fun u ->
      List.filter_map
        (fun v ->
          if u < v && not (Graph.mem_edge u v g) then Some (u, v) else None)
        far)
    far
  |> Array.of_list

(* The starting instance is fixed, so seeds vary the stream only: random
   antichains are drawn from a fixed PRNG until the instance is
   unsolvable with a witness that leaves room for dealer-side edits. *)
let serve_instance_seed = 2016

let serve_start () =
  let rng = Prng.create serve_instance_seed in
  let g = Generators.layered ~width:serve_width ~depth:serve_depth in
  let receiver = 1 + (serve_width * serve_depth) in
  let view = View.radius 1 g in
  let rec draw attempts =
    if attempts = 0 then failwith "serve: no suitable starting instance";
    let structure =
      Builders.random_antichain rng g ~dealer:0 ~sets:6 ~max_size:4
    in
    let inst = Instance.make ~graph:g ~structure ~view ~dealer:0 ~receiver in
    match (Cut.find_rmt_cut inst).cut_found with
    | Some w when Array.length (dealer_side_pairs inst w) >= serve_pairs ->
      (inst, w)
    | _ -> draw (attempts - 1)
  in
  draw 500

let serve_stream rng (inst : Instance.t) (w : Cut.witness) =
  (* a few fixed pairs keep the reachable instances few enough that
     every seed visits each of them many times *)
  let pairs = Array.sub (dealer_side_pairs inst w) 0 serve_pairs in
  let sets = Array.of_list (Structure.maximal_sets inst.structure) in
  let cur = ref inst in
  let update d =
    match Delta.apply !cur d with
    | Ok i ->
      cur := i;
      Update d
    | Error e -> failwith ("serve: invalid generated delta: " ^ e)
  in
  (* between adversary edits: four dealer-side edge toggles around one
     repeated query *)
  let filler () =
    List.init 5 (fun k ->
        if k = 2 then Query
        else
          let u, v = Prng.pick rng pairs in
          update
            (if Graph.mem_edge u v !cur.graph then Delta.Remove_edge (u, v)
             else Delta.Add_edge (u, v)))
  in
  (* adversary edits retire one starting maximal set and restore it five
     ops later; each block retires every set once, in a seeded order, so
     every seed weights the sets alike *)
  let out = ref [] and len = ref 0 in
  while !len < serve_len do
    let order = Array.copy sets in
    Prng.shuffle rng order;
    Array.iter
      (fun s ->
        let retire = update (Delta.Remove_set s) in
        let during = filler () in
        let restore = update (Delta.Add_set s) in
        let after = filler () in
        out := List.rev_append ((retire :: during) @ (restore :: after)) !out;
        len := !len + 12)
      order
  done;
  Array.sub (Array.of_list (List.rev !out)) 0 serve_len

let serve ~seed =
  let start, w = serve_start () in
  let stream = serve_stream (Prng.create seed) start w in
  let svc = ref (Service.create start) in
  let last_stats = ref (Service.stats !svc) in
  let last_verdict = ref None in
  let verdicts = Array.make serve_len None in
  let applied = Array.make serve_len true in
  let snapshots = Array.make serve_len None in
  let tally =
    List.map
      (fun k -> (k, Array.make serve_len 0))
      [
        "service.cached";
        "service.witness_reuses";
        "service.searches";
        "service.rejected";
        "cut.visited";
      ]
  in
  let set k i v = (List.assoc k tally).(i) <- v in
  let reset () =
    svc := Service.create start;
    last_verdict := None;
    (* only the first run of an op is checked: later ones keep nothing *)
    Array.fill snapshots 0 serve_len None;
    ignore (Service.cut !svc);
    last_stats := Service.stats !svc
  in
  reset ();
  let query i =
    verdicts.(i) <- Some (Span.record sp_query (fun () -> Service.cut !svc))
  in
  let op i =
    match stream.(i) with
    | Update d ->
      applied.(i) <-
        Result.is_ok (Span.record sp_apply (fun () -> Service.apply !svc d));
      query i
    | Query -> query i
  in
  let after i =
    let s = Service.stats !svc and b = !last_stats in
    last_stats := s;
    set "service.cached" i (s.cached - b.cached);
    set "service.witness_reuses" i (s.witness_reuses - b.witness_reuses);
    set "service.searches" i (s.searches - b.searches);
    set "service.rejected" i (s.rejected - b.rejected);
    (* a cached answer is the previous verdict itself *)
    let v = Option.get verdicts.(i) in
    (match !last_verdict with
     | Some prev when prev == v -> set "cut.visited" i 0
     | _ -> set "cut.visited" i v.visited);
    last_verdict := Some v;
    (* held until the pass's check, which drops it; [reset] drops those
       of ops that ran again *)
    if i mod serve_check_every = 0 then
      snapshots.(i) <- Some (Service.instance !svc)
  in
  let answer i =
    match verdicts.(i) with
    | Some v -> Solvability.of_verdict v
    | None -> Solvability.Unknown
  in
  let verify i =
    (match snapshots.(i) with
     | Some inst ->
       snapshots.(i) <- None;
       let fresh = Solvability.partial_knowledge inst in
       if not (Solvability.feasibility_equal fresh (answer i)) then
         wrong "serve op %d: service says %s, from-scratch says %s" i
           (feas_to_string (answer i)) (feas_to_string fresh)
     | None -> ());
    applied.(i)
    && not (Solvability.feasibility_equal (answer i) Solvability.Unknown)
  in
  {
    ops = serve_len;
    reset;
    op;
    after;
    verify;
    digest = (fun i -> Hashtbl.hash (feas_to_string (answer i), applied.(i)));
    tally;
    label =
      (fun i ->
        match stream.(i) with
        | Update (Delta.Add_edge _ | Delta.Remove_edge _) -> "topology+query"
        | Update _ -> "adversary+query"
        | Query -> "query");
    summary =
      (fun () ->
        let solvable = ref 0 and answered = ref 0 in
        Array.iteri
          (fun i v ->
            if Option.is_some v then begin
              incr answered;
              if Solvability.is_solvable (answer i) then incr solvable
            end)
          verdicts;
        Printf.sprintf "answers: %d solvable, %d unsolvable" !solvable
          (!answered - !solvable));
  }

(* attack / certified: seeded attack programs against a protocol on the
   repository's instances, half on the synchronous engine and half on
   the discrete-event simulator. *)
let load_instance name =
  match Codec.of_file (Filename.concat "instances" (name ^ ".rmt")) with
  | Ok inst -> inst
  | Error e -> failwith (Printf.sprintf "instances/%s.rmt: %s" name e)

let x_dealer = 7

let x_fake = 8

(* Steps of the honest automaton in the current op (init + step calls),
   counted by the observing runner. *)
let steps = ref 0

let wrap_automaton (a : ('s, 'm) Rmt_net.Engine.automaton) :
    ('s, 'm) Rmt_net.Engine.automaton =
  if !Span.enabled then
    {
      init =
        (fun v ->
          incr steps;
          Span.record sp_step (fun () -> a.init v));
      step =
        (fun v s ~round ~inbox ->
          incr steps;
          Span.record sp_step (fun () -> a.step v s ~round ~inbox));
      decision = (fun s -> Span.record sp_decision (fun () -> a.decision s));
    }
  else
    {
      a with
      init =
        (fun v ->
          incr steps;
          a.init v);
      step =
        (fun v s ~round ~inbox ->
          incr steps;
          a.step v s ~round ~inbox);
    }

let wrap_strategy (s : 'm Rmt_net.Engine.strategy) : 'm Rmt_net.Engine.strategy
    =
  if !Span.enabled then
    {
      s with
      act =
        (fun v ~round ~inbox ->
          Span.record sp_act (fun () -> s.act v ~round ~inbox));
    }
  else s

(* The backend [base] behind a span, keeping the outcome's transport
   stats; the automaton and strategy it is handed are wrapped too. *)
let observe (base : Campaign.runner) span
    (out : Rmt_net.Transport.stats option ref) =
  {
    Campaign.run =
      (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph ~adversary auto ->
        let o =
          Span.record span (fun () ->
              base.run ?max_messages ?size_of ?stop_when ?on_deliver ~graph
                ~adversary:(wrap_strategy adversary) (wrap_automaton auto))
        in
        out := Some o.stats;
        o);
  }

type run_op = {
  inst_name : string;
  inst : Instance.t;
  protocol : Campaign.protocol;
  solvability : Solvability.feasibility;
  program : Program.t;
  admissible : bool;
  sched_seed : int option;  (** [None]: engine *)
}

(* Ops cycle through the (instance, protocol) combos, two at a time: one
   on the engine, one on the simulator under [params]. *)
let runs ~seed ~combos ~params ~count ~strict_liveness =
  let combos =
    Array.of_list
      (List.concat_map
         (fun (name, protocols) ->
           let inst = load_instance name in
           List.map
             (fun p -> (name, inst, p, Campaign.solvability p inst))
             protocols)
         combos)
  in
  let rng = Prng.create seed in
  let ops =
    Array.init count (fun i ->
        let inst_name, inst, protocol, solvability =
          combos.(i / 2 mod Array.length combos)
        in
        let program = Strategy_gen.random rng inst ~x_dealer ~x_fake in
        {
          inst_name;
          inst;
          protocol;
          solvability;
          program;
          admissible = Instance.admissible inst (Program.corrupted program);
          sched_seed =
            (if i mod 2 = 0 then None else Some (Prng.int rng 0x3fffffff));
        })
  in
  let empty =
    {
      Campaign.program = Program.make ~seed:0 [];
      verdict = Campaign.Silenced;
      rounds = 0;
      messages = 0;
      truncated = false;
    }
  in
  let reports = Array.make count empty in
  let tally =
    List.map
      (fun k -> (k, Array.make count 0))
      [
        "transport.messages"; "transport.bits"; "transport.rounds";
        "protocol.steps";
      ]
  in
  let set k i v = (List.assoc k tally).(i) <- v in
  let outcomes = Hashtbl.create 8 in
  let captured = ref None in
  let op i =
    let o = ops.(i) in
    let runner =
      match o.sched_seed with
      | None -> observe Campaign.engine_runner sp_engine captured
      | Some s ->
        observe
          (Sim_exec.runner ~policy:(Policy.random (Prng.create s) params))
          sp_sim captured
    in
    steps := 0;
    reports.(i) <-
      Span.record sp_campaign (fun () ->
          Campaign.execute ~runner o.protocol o.inst ~x_dealer o.program)
  in
  let after i =
    set "protocol.steps" i !steps;
    match !captured with
    | Some st ->
      captured := None;
      set "transport.messages" i st.messages;
      set "transport.bits" i st.bits;
      set "transport.rounds" i st.rounds
    | None -> ()
  in
  let verify i =
    let o = ops.(i) and r = reports.(i) in
    let c =
      Campaign.classify ~solvability:o.solvability ~admissible:o.admissible r
    in
    incr_key outcomes
      (Printf.sprintf "%s:%s"
         (Campaign.protocol_to_string o.protocol)
         (Campaign.classification_to_string c));
    match c with
    | Campaign.Safety_violation ->
      wrong "%s op %d: safety violation on %s (%s)"
        (Campaign.protocol_to_string o.protocol)
        i o.inst_name
        (Campaign.verdict_to_string r.verdict)
    | Campaign.Liveness_lost -> (not strict_liveness) && not r.truncated
    | Campaign.Safe -> not r.truncated
  in
  {
    ops = count;
    reset = ignore;
    op;
    after;
    verify;
    digest =
      (fun i ->
        let r = reports.(i) in
        Hashtbl.hash (Campaign.verdict_to_string r.verdict, r.truncated));
    tally;
    label =
      (fun i ->
        let o = ops.(i) in
        Printf.sprintf "%s/%s/%s" o.inst_name
          (Campaign.protocol_to_string o.protocol)
          (if Option.is_none o.sched_seed then "engine" else "sim"));
    summary = (fun () -> render_keys outcomes);
  }

let attack_count = 40000

let certified_count = 24000

(* inside Envelope.default (delay 3, 2 drops); set-up asserts it *)
let certified_params =
  {
    Policy.delay_bound = 2;
    p_late = 0.1;
    p_reorder = 0.2;
    key_bound = 4;
    p_dup = 0.05;
    p_drop = 0.02;
    drop_budget = 2;
  }

let make_workload name ~seed =
  match name with
  | "solve" -> solve ~seed
  | "serve" -> serve ~seed
  | "attack" ->
    (* RMT-PKA on mesh_showcase is left out: a program's run there takes
       0.1 to 700 ms, and the five slowest of fifty carry 75-87% of the
       time, so the mean would be set by the few programs a seed draws *)
    runs ~seed
      ~combos:
        Campaign.
          [
            ("figure1_basic", [ Pka; Ppa; Zcpa ]);
            ("mesh_showcase", [ Ppa; Zcpa ]);
            ("onion_solvable", [ Pka; Ppa; Zcpa ]);
            ("path4_unsolvable", [ Pka; Ppa; Zcpa ]);
          ]
      ~params:Policy.timely_params ~count:attack_count ~strict_liveness:true
  | "certified" ->
    if
      not
        (Rmt_sim.Envelope_check.params_within certified_params
           Rmt_protocols.Envelope.default)
    then failwith "certified: policy params outside Envelope.default";
    (* cert-pka takes 100-300 ms a run on mesh_showcase and
       onion_solvable: a run of seconds would see too few of them *)
    runs ~seed
      ~combos:
        Campaign.
          [
            ("figure1_basic", [ Cert_pka; Cert_ppa ]);
            ("path4_unsolvable", [ Cert_pka; Cert_ppa ]);
          ]
      ~params:certified_params ~count:certified_count ~strict_liveness:false
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Timed loop                                                          *)
(* ------------------------------------------------------------------ *)

(* A run ends after its time is up or [max_passes] passes of the op
   list, whichever comes first, so the latency buffer can be allocated up
   front: its size does not depend on how fast the program is. *)
let max_passes = 4

(* Op times are kept at the calibrated reference speed (see [Calib]). *)
type loop = {
  lat : Float.Array.t;  (** ns of every op run, in run order *)
  idx_sum : float array;  (** ns per op index, summed over passes *)
  idx_cnt : int array;
  mutable measured_ns : int;  (** wall time in ops, as measured *)
  mutable calibrated_ns : float;  (** the same at reference speed *)
  mutable attempted : int;  (** ops run; [lat] holds that many *)
  mutable failed : int;
  mutable passes : int;
  mutable pass_rates : float list;  (** ops/s of each pass, latest first *)
  mutable hc : Hc.stats list;  (** per-pass Hc deltas *)
  mutable live_peak_words : int;
      (** largest live major heap at the heap points (see [heap_step]) *)
}

let new_loop w =
  {
    lat = Float.Array.make (max_passes * w.ops) 0.;
    idx_sum = Array.make w.ops 0.;
    idx_cnt = Array.make w.ops 0;
    measured_ns = 0;
    calibrated_ns = 0.;
    attempted = 0;
    failed = 0;
    passes = 0;
    pass_rates = [];
    hc = [];
    live_peak_words = 0;
  }

let hc_delta (a : Hc.stats) (b : Hc.stats) =
  {
    b with
    set_hits = b.set_hits - a.set_hits;
    set_misses = b.set_misses - a.set_misses;
    structure_hits = b.structure_hits - a.structure_hits;
    structure_misses = b.structure_misses - a.structure_misses;
    restrict_hits = b.restrict_hits - a.restrict_hits;
    restrict_misses = b.restrict_misses - a.restrict_misses;
    join_hits = b.join_hits - a.join_hits;
    join_misses = b.join_misses - a.join_misses;
  }

(* What the first run of each op produced: its failure flag and a
   fingerprint of its result and counters, which every later run of the
   op must reproduce. *)
type reference = {
  bad : bool array;
  fingerprint : int array;
  mutable checked : int;  (** ops [0, checked) have run and been verified *)
}

let new_reference w =
  {
    bad = Array.make w.ops false;
    fingerprint = Array.make w.ops 0;
    checked = 0;
  }

let fingerprint w i =
  Hashtbl.hash (w.digest i, List.map (fun (_, a) -> a.(i)) w.tally)

(* Checks ops [0, n) after a pass; returns how many failed. *)
let check_pass w reference n =
  let failed = ref 0 in
  for i = 0 to n - 1 do
    if i >= reference.checked then begin
      reference.bad.(i) <- not (w.verify i);
      reference.fingerprint.(i) <- fingerprint w i;
      reference.checked <- i + 1
    end
    else if fingerprint w i <> reference.fingerprint.(i) then
      wrong "op %d: result or counters differ between runs on one seed" i;
    if reference.bad.(i) then incr failed
  done;
  !failed

(* Ops run in windows of about [window_ns]; the calibration kernel runs
   between windows, and a window's op times are scaled by the kernel's
   speed just before and just after it. *)
let window_ns = 5_000_000

(* The heap points: a full collection, then a reading of the live major
   heap, after every [heap_step w] ops of the first pass, up to
   [heap_points] of them.  The first pass runs at least that far whatever
   the time, so every run reads the heap at the same points.  There the
   workload holds the same state in every build, and the benchmark's own
   records are either preallocated or hold one entry per op run so far,
   so the peak over the points moves with the program's memory and not
   with its speed. *)
let heap_points = 4

let heap_step w = max 1 (w.ops / (4 * heap_points))

let timed_loop ?(heap = false) w reference loop ~seconds =
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let capacity = Float.Array.length loop.lat in
  let first = loop.attempted in
  let heap_ops = if heap then heap_points * heap_step w else 0 in
  let more i =
    loop.attempted < capacity
    && (loop.attempted = first
       || Span.now () < deadline
       || (loop.passes = 0 && i < heap_ops))
  in
  while more 0 do
    Hc.clear ();
    w.reset ();
    let hc0 = Hc.stats () in
    let i = ref 0 and pass_ns = ref 0. in
    (* the current window: ops [wop, i) of this pass, stored from
       [lat.(wstart)] on *)
    let wstart = ref loop.attempted and wop = ref 0 in
    let window_measured = ref 0 in
    let before = ref (Calib.measure ()) in
    let flush () =
      let after = Calib.measure () in
      let f = Calib.factor ~before:!before ~after in
      before := after;
      for k = !wstart to loop.attempted - 1 do
        let x = Float.Array.get loop.lat k *. f in
        let op = !wop + (k - !wstart) in
        Float.Array.set loop.lat k x;
        loop.idx_sum.(op) <- loop.idx_sum.(op) +. x;
        pass_ns := !pass_ns +. x
      done;
      loop.measured_ns <- loop.measured_ns + !window_measured;
      wstart := loop.attempted;
      wop := !i;
      window_measured := 0
    in
    while !i < w.ops && more !i do
      Span.set_op loop.attempted;
      let t0 = Span.now () in
      Span.record sp_op (fun () -> w.op !i);
      let dt = Span.now () - t0 in
      w.after !i;
      Float.Array.set loop.lat loop.attempted (float_of_int dt);
      window_measured := !window_measured + dt;
      loop.idx_cnt.(!i) <- loop.idx_cnt.(!i) + 1;
      loop.attempted <- loop.attempted + 1;
      incr i;
      if loop.passes = 0 && !i <= heap_ops && !i mod heap_step w = 0 then begin
        Gc.full_major ();
        loop.live_peak_words <- max loop.live_peak_words (Gc.stat ()).live_words
      end;
      if !window_measured >= window_ns then flush ()
    done;
    flush ();
    loop.calibrated_ns <- loop.calibrated_ns +. !pass_ns;
    loop.pass_rates <- (float_of_int !i /. (!pass_ns /. 1e9)) :: loop.pass_rates;
    loop.hc <- hc_delta hc0 (Hc.stats ()) :: loop.hc;
    loop.failed <- loop.failed + check_pass w reference !i;
    loop.passes <- loop.passes + 1
  done

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile of a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* the highest of p99/p95/p90 that leaves at least ten samples beyond it *)
let tail_percentile n =
  match
    List.find_opt
      (fun p -> n - int_of_float (Float.ceil (p *. float_of_int n)) >= 10)
      [ 0.99; 0.95; 0.90 ]
  with
  | Some p -> p
  | None -> 0.90

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* counter totals over the checked ops *)
let counter_sums w reference =
  List.map
    (fun (k, a) ->
      let s = ref 0 in
      for i = 0 to reference.checked - 1 do
        s := !s + a.(i)
      done;
      (k, !s))
    w.tally

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         let value = if Float.is_finite value then value else 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
       ms)

let print_result ~correct ~attempted ~failed ms =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics ms)

let print_shares w loop =
  let by_label = Hashtbl.create 16 in
  let total = ref 0. in
  Array.iteri
    (fun i ns ->
      let l = w.label i in
      total := !total +. ns;
      let ns0, n0 = Option.value ~default:(0., 0) (Hashtbl.find_opt by_label l) in
      Hashtbl.replace by_label l (ns0 +. ns, n0 + loop.idx_cnt.(i)))
    loop.idx_sum;
  Printf.printf "time share by op class:\n";
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_label []
  |> List.sort compare
  |> List.iter (fun (l, (ns, n)) ->
         Printf.printf "  %-36s %6.2f%%  %7d ops  %.4f ms/op\n" l
           (100. *. ns /. !total)
           n
           (ns /. 1e6 /. float_of_int (max 1 n)))

let print_counters w reference =
  Printf.printf "counters (deterministic, over ops 0..%d):\n"
    (reference.checked - 1);
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
    (counter_sums w reference)

let hc_sum loop =
  List.fold_left
    (fun (rh, rm, sm, tm) (s : Hc.stats) ->
      ( rh + s.restrict_hits,
        rm + s.restrict_misses,
        sm + s.set_misses,
        tm + s.structure_misses ))
    (0, 0, 0, 0) loop.hc

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* One set-up, and its duration in seconds at reference speed and as
   measured.  A full major collection first keeps earlier set-ups'
   garbage from slowing this one down. *)
let setup name ~seed =
  Hc.clear ();
  Gc.full_major ();
  let before = Calib.measure () in
  let t0 = Span.now () in
  let w = make_workload name ~seed in
  let dt = float_of_int (Span.now () - t0) /. 1e9 in
  let f = Calib.factor ~before ~after:(Calib.measure ()) in
  (w, dt *. f, dt)

(* Set-up is repeated (at least 3 and at most 15 times, until a second
   has been spent) and its median reported; the last one is used. *)
let repeated_setup name ~seed =
  let rec go times raw =
    let w, dt, dt_raw = setup name ~seed in
    let times = dt :: times and raw = dt_raw :: raw in
    let n = List.length times in
    if n >= 15 || (n >= 3 && List.fold_left ( +. ) 0. times >= 1.) then
      (w, times, raw)
    else go times raw
  in
  go [] []

let end_to_end name ~seed ~seconds =
  let w, setup_times, setup_raw = repeated_setup name ~seed in
  let setup_s = median setup_times in
  let reference = new_reference w in
  let loop = new_loop w in
  timed_loop ~heap:true w reference loop ~seconds;
  (* OCaml's heap size grows in steps, so its own peak jumps by tens of
     percent between runs holding the same data; the live heap does not *)
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  let heap_peak_mb = mb loop.live_peak_words in
  let n = loop.attempted in
  let lat = Array.init n (fun k -> Float.Array.get loop.lat k /. 1e6) in
  Array.sort compare lat;
  let p = tail_percentile n in
  let ops_per_s = float_of_int n /. (loop.calibrated_ns /. 1e9) in
  let sums = counter_sums w reference in
  let per_op k =
    match List.assoc_opt k sums with
    | Some s -> Printf.sprintf "%.1f" (ratio s reference.checked)
    | None -> "n/a"
  in
  Printf.printf "workload %s, seed %d: %d ops in %d passes (list of %d)\n" name
    seed loop.attempted loop.passes w.ops;
  Printf.printf "outcomes: %s\n" (w.summary ());
  Printf.printf "ops/s per pass: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") loop.pass_rates));
  print_shares w loop;
  print_counters w reference;
  let speed = float_of_int loop.measured_ns /. loop.calibrated_ns in
  Printf.printf
    "end-to-end (times at reference speed; measured ones were %.3fx these, \
     the kernel ran in %.1f us against its nominal %.1f us):\n"
    speed
    (speed *. Calib.nominal_ns /. 1e3)
    (Calib.nominal_ns /. 1e3);
  Printf.printf "  ops_per_s     %.1f 1/s\n" ops_per_s;
  Printf.printf "  op_p50_ms     %.4f ms\n" (percentile lat 0.5);
  Printf.printf "  op_tail_ms    %.4f ms (p%g of %d samples)\n"
    (percentile lat p) (100. *. p) n;
  Printf.printf "  failed_ratio  %.4f (%d of %d)\n"
    (ratio loop.failed loop.attempted)
    loop.failed loop.attempted;
  Printf.printf "  msgs_per_op   %s msgs\n" (per_op "transport.messages");
  Printf.printf "  bits_per_op   %s bits\n" (per_op "transport.bits");
  Printf.printf "  setup_s       %.4f s (median of %d)\n" setup_s
    (List.length setup_times);
  Printf.printf
    "  heap_peak_mb  %.2f MB (live, after %d ops; the heap itself peaked at \
     %.2f MB)\n"
    heap_peak_mb
    (heap_points * heap_step w)
    (mb (Gc.quick_stat ()).top_heap_words);
  Printf.printf "as measured (not calibrated):\n";
  Printf.printf "  ops_per_s     %.1f 1/s\n"
    (float_of_int n /. (float_of_int loop.measured_ns /. 1e9));
  Printf.printf "  setup_s       %.4f s\n" (median setup_raw);
  ( (loop.attempted, loop.failed),
    [
      ("ops_per_s", ops_per_s, "1/s");
      ("op_p50_ms", percentile lat 0.5, "ms");
      ("op_tail_ms", percentile lat p, "ms");
      ("setup_s", setup_s, "s");
      ("heap_peak_mb", heap_peak_mb, "MB");
    ] )

let per_layer name ~seed ~seconds ~spans =
  let w, _, _ = setup name ~seed in
  let reference = new_reference w in
  (* a warm-up run first, so the heap has grown and caches are filled
     before either half is timed *)
  let warm = new_loop w in
  timed_loop w reference warm ~seconds:(seconds /. 10.);
  let plain = new_loop w in
  timed_loop w reference plain ~seconds:(seconds *. 0.45);
  let traced = new_loop w in
  Span.reset ();
  Span.enabled := true;
  timed_loop w reference traced ~seconds:(seconds *. 0.45);
  Span.enabled := false;
  Option.iter Span.write_jsonl spans;
  (* overhead over the op indices both halves ran *)
  let sum_t = ref 0. and sum_u = ref 0. in
  Array.iteri
    (fun i ct ->
      let cu = plain.idx_cnt.(i) in
      if ct > 0 && cu > 0 then begin
        sum_t := !sum_t +. (traced.idx_sum.(i) /. float_of_int ct);
        sum_u := !sum_u +. (plain.idx_sum.(i) /. float_of_int cu)
      end)
    traced.idx_cnt;
  let overhead_pct = 100. *. ((!sum_t /. !sum_u) -. 1.) in
  let ops = traced.attempted in
  (* span times are measured; scale them by the traced half's mean
     calibration factor *)
  let speed = traced.calibrated_ns /. float_of_int traced.measured_ns in
  let self_ms s =
    float_of_int Span.self_ns.(s) *. speed /. 1e6 /. float_of_int ops
  in
  let op_total = Span.total_ns.(sp_op) in
  let share s = 100. *. ratio Span.self_ns.(s) op_total in
  (* campaign.build wraps all of Campaign.execute, so time no finer layer
     accounts for lands in its self time: coverage counts the named
     layers below it only *)
  let catch_all_pct = share sp_campaign in
  let coverage_pct = 100. -. share sp_op -. catch_all_pct in
  let sums = counter_sums w reference in
  let per_op k =
    ratio (Option.value ~default:0 (List.assoc_opt k sums)) reference.checked
  in
  let rh, rm, sm, tm = hc_sum traced in
  let reuses = per_op "service.witness_reuses"
  and searches = per_op "service.searches" in
  Printf.printf "workload %s, seed %d (traced): %d untraced + %d traced ops\n"
    name seed plain.attempted ops;
  Printf.printf "per-layer self time (traced half):\n";
  Printf.printf "  %-20s %12s %10s %8s\n" "span" "calls" "ms/op" "share";
  for s = 0 to !Span.num_names - 1 do
    if Span.calls.(s) > 0 then
      Printf.printf "  %-20s %12d %10.4f %7.2f%%\n" Span.names.(s)
        Span.calls.(s) (self_ms s)
        (share s)
  done;
  print_counters w reference;
  Printf.printf
    "layer self times cover %.2f%% of op wall time (campaign.build self, \
     not counted: %.2f%%)\n"
    coverage_pct catch_all_pct;
  Printf.printf "trace overhead %.2f%%\n" overhead_pct;
  if coverage_pct < 90. then
    wrong "layer self times cover only %.1f%% of op wall time" coverage_pct;
  ( ( warm.attempted + plain.attempted + ops,
      warm.failed + plain.failed + traced.failed ),
    [
      ("cut.rmt_ms", self_ms sp_cut_rmt, "ms");
      ("cut.zpp_ms", self_ms sp_cut_zpp, "ms");
      ("cut.visited", per_op "cut.visited", "count/op");
      ("hc.restrict_hit_ratio", ratio rh (rh + rm), "ratio");
      ("hc.restrict_misses", ratio rm ops, "count/op");
      ("hc.set_misses", ratio sm ops, "count/op");
      ("hc.structure_misses", ratio tm ops, "count/op");
      ("service.apply_ms", self_ms sp_apply, "ms");
      ("service.query_ms", self_ms sp_query, "ms");
      ("service.cached", per_op "service.cached", "count/op");
      ("service.witness_reuses", reuses, "count/op");
      ("service.searches", searches, "count/op");
      ( "service.reuse_ratio",
        (if reuses +. searches > 0. then reuses /. (reuses +. searches) else 0.),
        "ratio" );
      ("protocol.step_ms", self_ms sp_step, "ms");
      ("protocol.decision_ms", self_ms sp_decision, "ms");
      ("protocol.steps", per_op "protocol.steps", "count/op");
      ("adversary.act_ms", self_ms sp_act, "ms");
      ("engine.self_ms", self_ms sp_engine, "ms");
      ("sim.self_ms", self_ms sp_sim, "ms");
      ("campaign.build_ms", self_ms sp_campaign, "ms");
      ("transport.messages", per_op "transport.messages", "count/op");
      ("transport.bits", per_op "transport.bits", "count/op");
      ("transport.rounds", per_op "transport.rounds", "count/op");
      ("trace.overhead_pct", overhead_pct, "%");
      ("trace.coverage_pct", coverage_pct, "%");
    ] )

let usage =
  "rmtbench.exe --workload solve|serve|attack|certified --seed N --seconds S \
   --trace 0|1 [--spans FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and spans = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE span JSONL");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad a)) usage with
   | Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  if
    (not (List.mem !workload [ "solve"; "serve"; "attack"; "certified" ]))
    || !seconds <= 0.
    || not (List.mem !trace [ 0; 1 ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  try
    let (attempted, failed), metrics =
      if !trace = 0 then end_to_end !workload ~seed:!seed ~seconds:!seconds
      else per_layer !workload ~seed:!seed ~seconds:!seconds ~spans:!spans
    in
    print_result ~correct:true ~attempted ~failed metrics
  with Wrong m ->
    Printf.printf "WRONG: %s\n" m;
    print_result ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
