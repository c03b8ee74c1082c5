(* Experiment harness.

   The paper is a theory paper with no empirical section, so the
   "tables and figures" regenerated here are its theorems, one experiment
   each (see DESIGN.md §3 and EXPERIMENTS.md):

     E1  ⊕ operation laws and exactness          (Thm 1, Cor 2, Thms 11-14)
     E2  safety of RMT-PKA / 𝒵-CPA under attack  (Thm 4)
     E2b indistinguishability attacks            (Thm 3 / Thm 8, Fig 2)
     E3  tightness of the RMT-cut                (Thm 3 + Thm 5)
     E4  tightness of the RMT 𝒵-pp cut           (Thm 7 + Thm 8)
     E5  knowledge ladder / uniqueness hierarchy (Cor 6, §4)
     E6  𝒵-CPA is polynomial, RMT-PKA is not     (§5 motivation)
     E7  self-reduction: simulated membership    (Thm 9, Cor 10, Fig 1)
     E8  minimal knowledge frontier              (§3.1 remark)

   plus a Bechamel micro-benchmark per experiment's core operation
   (`bechamel`), the `ablations`, and the performance sections whose rows
   `--json` records in BENCH_<section>.json:

     core       packed antichain kernels vs the list baseline, set
                kernels, cut deciders, multicore sweep, service
     attack     seeded fuzzing campaigns over instances/
     sim        simulator overhead vs the engine, sweep throughput
     net        the round loop: heartbeat and flood throughput
     lint       rmt-lint pass, summaries, model (reads _build's .cmt files)
     certified  certification overhead, solvability frontier

   Every record has one schema (see [write_record]); check_regression.exe
   gates its rows against the committed baseline.

   Usage: main.exe [e1|e2|e2b|e3|...|e11|ablations|bechamel|core|attack|
                    sim|net|lint|certified|all]* [--json] [--domains=N] *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core
open Rmt_workloads
module Campaign = Rmt_attack.Campaign
module Program = Rmt_attack.Program
module Strategy_gen = Rmt_attack.Strategy_gen

(* global flag, set by the driver before experiments run *)
let domains_override = ref None

let sweep_domains () =
  match !domains_override with
  | Some d -> d
  | None -> Parsweep.recommended_domains ()

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let dec_str = function
  | None -> "⊥"
  | Some x -> string_of_int x

(* One row of a BENCH_<section>.json record: a name and flat scalar
   fields, each value already rendered as JSON.  The gate reads
   "ns_per_run" and "r2" off the rows it tracks (prefixes in
   check_regression.ml); single-shot facts stay out of those prefixes. *)
type row = { name : string; fields : (string * string) list }

let jint = string_of_int
let jstr = Printf.sprintf "%S"
let jbool = string_of_bool
let jnum digits x = Printf.sprintf "%.*f" digits x

(* Bechamel (name, ns/run, r²) results as rows *)
let timed_rows ?(fields = []) results =
  List.map
    (fun (name, ns, r2) ->
      { name; fields = ("ns_per_run", jnum 1 ns) :: ("r2", jnum 4 r2) :: fields })
    results

(* a single-shot wall-clock timing as a row *)
let wall_row ?(fields = []) name secs =
  { name; fields = ("ns_per_run", jnum 1 (secs *. 1e9)) :: fields }

let write_record section rows =
  let path = Printf.sprintf "BENCH_%s.json" section in
  let line { name; fields } =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (k, v) -> Printf.sprintf "%S: %s" k v)
           (("name", jstr name) :: fields))
    ^ "}"
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema\": \"rmt-bench/2\",\n  \"section\": %S,\n  \
         \"domains_available\": %d,\n  \"rows\": [\n    %s\n  ]\n}\n"
        section
        (Parsweep.recommended_domains ())
        (String.concat ",\n    " (List.map line rows)));
  Printf.printf "[wrote %s]\n" path

(* ------------------------------------------------------------------ *)
(* E1 — the ⊕ operation                                                *)
(* ------------------------------------------------------------------ *)

let random_structure rng ~universe ~sets ~max_size =
  let ground = Nodeset.range 0 universe in
  let candidates =
    List.init sets (fun _ ->
        Prng.sample rng ground (1 + Prng.int rng (max 1 max_size)))
  in
  Structure.of_sets ~ground candidates

(* every member of a small structure, by subset enumeration *)
let members s =
  let out = ref [] in
  Nodeset.subsets_iter (Structure.ground s) (fun z ->
      if Structure.mem z s then out := z :: !out);
  !out

let brute_join e f =
  let a = Structure.ground e and b = Structure.ground f in
  let unions =
    List.concat_map
      (fun z1 ->
        List.filter_map
          (fun z2 ->
            if Nodeset.equal (Nodeset.inter z1 b) (Nodeset.inter z2 a) then
              Some (Nodeset.union z1 z2)
            else None)
          (members f))
      (members e)
  in
  match unions with
  | [] -> Structure.empty_family ~ground:(Nodeset.union a b)
  | _ -> Structure.of_sets ~ground:(Nodeset.union a b) unions

let e1 () =
  section "E1 — joint view operation ⊕ (Thm 1, Cor 2, Thms 11/13/14)";
  let rng = Prng.create 101 in
  let law name ~cases run =
    let violations = ref 0 in
    for _ = 1 to cases do
      if not (run ()) then incr violations
    done;
    (name, cases, !violations)
  in
  let pair u = (random_structure rng ~universe:u ~sets:4 ~max_size:4,
                random_structure rng ~universe:u ~sets:4 ~max_size:4) in
  let restricted_pair () =
    let z = random_structure rng ~universe:10 ~sets:5 ~max_size:5 in
    let a = Prng.subset rng (Nodeset.range 0 10) 0.5 in
    let b = Prng.subset rng (Nodeset.range 0 10) 0.5 in
    (z, a, b)
  in
  let results =
    [
      law "commutativity (Thm 11)" ~cases:1000 (fun () ->
          let e, f = pair 10 in
          Structure.equal (Joint.join e f) (Joint.join f e));
      law "associativity (Thm 13)" ~cases:500 (fun () ->
          let e, f = pair 9 in
          let h = random_structure rng ~universe:9 ~sets:3 ~max_size:4 in
          Structure.equal
            (Joint.join e (Joint.join f h))
            (Joint.join (Joint.join e f) h));
      law "idempotence (Thm 14)" ~cases:1000 (fun () ->
          let e, _ = pair 10 in
          Structure.equal e (Joint.join e e));
      law "exactness vs Definition 2" ~cases:400 (fun () ->
          let e, f = pair 6 in
          Structure.equal (Joint.join e f) (brute_join e f));
      law "Cor 2: Z^(A∪B) ⊆ Z^A ⊕ Z^B" ~cases:800 (fun () ->
          let z, a, b = restricted_pair () in
          Structure.subset_family
            (Structure.restrict (Nodeset.union a b) z)
            (Joint.join (Structure.restrict a z) (Structure.restrict b z)));
      law "Thm 1: join restricts into operands" ~cases:800 (fun () ->
          let e, f = pair 8 in
          let j = Joint.join e f in
          List.for_all
            (fun m ->
              Structure.mem (Nodeset.inter m (Structure.ground e)) e
              && Structure.mem (Nodeset.inter m (Structure.ground f)) f)
            (Structure.maximal_sets j));
    ]
  in
  let t = Table.create [ "law"; "cases"; "violations" ] in
  List.iter
    (fun (name, cases, violations) ->
      Table.add_row t [ name; Table.cell_int cases; Table.cell_int violations ])
    results;
  Table.print ~title:"paper claim: 0 violations everywhere" t

(* ------------------------------------------------------------------ *)
(* E2 — safety under the fixed attack battery                          *)
(* ------------------------------------------------------------------ *)

let e2_instances () =
  let rng = Prng.create 202 in
  List.concat_map
    (fun (name, g, dealer, receiver) ->
      let kinds =
        [
          ("thr-1", Builders.global_threshold g ~dealer 1);
          ( "rand",
            Builders.random_antichain rng g ~dealer ~sets:5
              ~max_size:(max 1 (Graph.num_nodes g / 3)) );
        ]
      in
      List.concat_map
        (fun (kname, structure) ->
          List.map
            (fun (vname, view) ->
              ( Printf.sprintf "%s/%s/%s" name kname vname,
                Instance.make ~graph:g ~structure ~view ~dealer ~receiver ))
            [ ("ad-hoc", View.ad_hoc g); ("r2", View.radius 2 g) ])
        kinds)
    [
      ("layered-3x2", Generators.layered ~width:3 ~depth:2, 0, 7);
      ("grid-3x3", Generators.grid 3 3, 0, 8);
      ("cycle-7", Generators.cycle 7, 0, 3);
    ]

let e2 () =
  section "E2 — safety of RMT-PKA and 𝒵-CPA under Byzantine attack (Thm 4)";
  let t =
    Table.create
      [ "instance"; "protocol"; "runs"; "correct"; "undecided"; "wrong"; "trunc" ]
  in
  List.iter
    (fun (label, inst) ->
      List.iter
        (fun (name, protocol) ->
          let r = Campaign.battery protocol inst ~x_dealer:5 ~x_fake:6 in
          Table.add_row t
            [
              label; name;
              Table.cell_int r.trials;
              Table.cell_int r.delivered;
              Table.cell_int r.silenced;
              Table.cell_int r.violated;
              Table.cell_int r.truncated;
            ])
        [ ("RMT-PKA", Campaign.Pka); ("Z-CPA", Campaign.Zcpa) ])
    (e2_instances ());
  Table.print
    ~title:
      "paper claim: the 'wrong' column is identically 0 (safety); undecided \
       runs appear only where the corruption actually breaks solvability"
    t

(* ------------------------------------------------------------------ *)
(* E2b — the two-face indistinguishability attack                      *)
(* ------------------------------------------------------------------ *)

let e2b () =
  section "E2b — indistinguishability attacks on cut-bearing instances (Fig 2)";
  let instances =
    List.filter_map
      (fun (name, g, t, dealer, receiver) ->
        let inst =
          Instance.ad_hoc_of ~graph:g
            ~structure:(Builders.global_threshold g ~dealer t)
            ~dealer ~receiver
        in
        match (Cut.find_rmt_cut inst).cut_found with
        | Some w -> Some (name, inst, w)
        | None -> None)
      [
        ("path-4", Generators.path_graph 4, 1, 0, 3);
        ("layered-2x2", Generators.layered ~width:2 ~depth:2, 1, 0, 5);
        ("cycle-6", Generators.cycle 6, 1, 0, 3);
        ("grid-3x3", Generators.grid 3 3, 1, 0, 8);
      ]
  in
  let t =
    Table.create [ "instance"; "protocol"; "e decides"; "e' decides"; "broken" ]
  in
  List.iter
    (fun (name, (inst : Instance.t), w) ->
      let add protocol (v : Attack.verdict) =
        Table.add_row t
          [
            name; protocol; dec_str v.decision_e; dec_str v.decision_e';
            Table.cell_bool v.safety_broken;
          ]
      in
      add "RMT-PKA" (Attack.against_rmt_pka inst w ~x0:0 ~x1:1);
      add "Z-CPA" (Attack.against_zcpa inst w ~x0:0 ~x1:1);
      let naive mk label =
        let v =
          Attack.co_simulate ~graph:inst.graph ~c1:w.Cut.c1 ~c2:w.Cut.c2
            (mk ~x_dealer:0) (mk ~x_dealer:1) ~receiver:inst.receiver
        in
        add label v
      in
      naive
        (fun ~x_dealer ->
          Rmt_protocols.Naive.first_value inst.graph ~dealer:inst.dealer
            ~receiver:inst.receiver ~x_dealer)
        "naive-first";
      naive
        (fun ~x_dealer ->
          Rmt_protocols.Naive.neighbor_majority inst.graph ~dealer:inst.dealer
            ~receiver:inst.receiver ~x_dealer)
        "naive-majority";
      naive
        (fun ~x_dealer ->
          Rmt_protocols.Dolev.automaton inst.graph ~dealer:inst.dealer
            ~receiver:inst.receiver ~x_dealer)
        "dolev")
    instances;
  Table.print
    ~title:
      "paper claim: safe protocols output ⊥ in both runs; eager unsafe \
       baselines decide and are wrong in one run (broken = yes)"
    t

(* ------------------------------------------------------------------ *)
(* E3 / E4 — tightness sweeps                                          *)
(* ------------------------------------------------------------------ *)

(* correct under the honest run and every (maximal corruption set ×
   menu entry) combination of the E2 battery *)
let resilient protocol inst =
  let r = Campaign.battery protocol inst ~x_dealer:1 ~x_fake:2 in
  r.delivered = r.trials

(* Per-instance classification runs on all cores (Parsweep); the classify
   function must be pure, so any randomness is pre-split per instance
   before the sweep.  Aggregation of the (in solvable class?, behavior
   matches?) pairs stays sequential. *)
let tightness_rows results =
  let classes = [ ("solvable", true); ("unsolvable", false) ] in
  List.map
    (fun (cname, want_solvable) ->
      let in_class =
        List.filter (fun (s, _) -> s = want_solvable) (Array.to_list results)
      in
      let agree = List.length (List.filter snd in_class) in
      (cname, List.length in_class, agree))
    classes

let print_tightness ~title rows =
  let t = Table.create [ "class"; "instances"; "behavior matches"; "agreement" ] in
  List.iter
    (fun (cname, total, agree) ->
      Table.add_row t
        [
          cname; Table.cell_int total; Table.cell_int agree;
          (if total = 0 then "n/a"
           else Table.cell_pct (float_of_int agree /. float_of_int total));
        ])
    rows;
  Table.print ~title t

let e3_classify { Workload.instance; _ } =
  let solvable =
    Solvability.partial_knowledge instance = Solvability.Solvable
  in
  let agree =
    if solvable then resilient Campaign.Pka instance
    else
      match (Cut.find_rmt_cut instance).cut_found with
      | None -> false
      | Some w ->
        let v = Attack.against_rmt_pka instance w ~x0:0 ~x1:1 in
        v.decision_e = None && v.decision_e' = None
  in
  (solvable, agree)

let e3 () =
  section "E3 — tightness of the RMT-cut for RMT-PKA (Thm 3 + Thm 5)";
  let suite = Workload.tightness_suite (Prng.create 303) ~count:120 ~n:9 in
  let results =
    Parsweep.map ~domains:(sweep_domains ()) e3_classify (Array.of_list suite)
  in
  print_tightness
    ~title:
      "paper claim: 100% agreement — no RMT-cut ⇔ RMT-PKA withstands every \
       adversary; RMT-cut ⇒ the two-face attack silences it"
    (tightness_rows results)

let e4 () =
  section "E4 — tightness of the RMT Z-pp cut for 𝒵-CPA (Thm 7 + Thm 8)";
  let suite = Workload.ad_hoc_suite (Prng.create 404) ~count:120 ~n:10 in
  let classify { Workload.instance; _ } =
    let solvable = Solvability.ad_hoc instance = Solvability.Solvable in
    let agree =
      if solvable then resilient Campaign.Zcpa instance
      else
        match (Cut.find_rmt_zpp_cut instance).cut_found with
        | None -> false
        | Some w ->
          let v = Attack.against_zcpa instance w ~x0:0 ~x1:1 in
          v.decision_e = None && v.decision_e' = None
    in
    (solvable, agree)
  in
  let results =
    Parsweep.map ~domains:(sweep_domains ()) classify (Array.of_list suite)
  in
  print_tightness ~title:"paper claim: 100% agreement in both classes"
    (tightness_rows results)

(* ------------------------------------------------------------------ *)
(* E5 — knowledge ladder and uniqueness hierarchy                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 — solvability vs knowledge radius; protocol hierarchy (Cor 6)";
  let rng = Prng.create 505 in
  let g = Generators.grid 3 4 in
  let receiver = 11 in
  (* two samplers: mostly-solvable small antichains plus larger ones whose
     instances need deeper views, so the ladder has a visible gradient *)
  let structures =
    List.init 15 (fun _ ->
        Builders.random_antichain rng g ~dealer:0 ~sets:3 ~max_size:2)
    @ List.init 15 (fun _ ->
          Builders.random_antichain rng g ~dealer:0 ~sets:4 ~max_size:2)
  in
  let diam = Option.value (Connectivity.diameter g) ~default:4 in
  let t =
    Table.create
      [ "knowledge"; "solvable"; "RMT-PKA resilient"; "Z-CPA resilient" ]
  in
  let structures_arr = Array.of_list structures in
  let par_count f =
    let hits = Parsweep.map ~domains:(sweep_domains ()) f structures_arr in
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 hits
  in
  (* resilience = correct under the honest run and every (maximal
     corruption set × strategy) combination; Z-CPA uses only ad hoc
     knowledge regardless of the instance's views, so its column is
     constant and shown once against radius-1 *)
  let zcpa_count =
    par_count (fun structure ->
        let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver in
        resilient Campaign.Zcpa inst)
  in
  List.iter
    (fun k ->
      let view = View.radius k g in
      let classified =
        Parsweep.map ~domains:(sweep_domains ())
          (fun structure ->
            let inst =
              Instance.make ~graph:g ~structure ~view ~dealer:0 ~receiver
            in
            ( Solvability.partial_knowledge inst = Solvability.Solvable,
              resilient Campaign.Pka inst ))
          structures_arr
      in
      let solvable =
        Array.fold_left (fun acc (s, _) -> if s then acc + 1 else acc) 0
          classified
      in
      let pka =
        Array.fold_left (fun acc (_, p) -> if p then acc + 1 else acc) 0
          classified
      in
      Table.add_row t
        [
          Printf.sprintf "radius-%d%s" k (if k >= diam then " (=full)" else "");
          Table.cell_ratio solvable (List.length structures);
          Table.cell_ratio pka (List.length structures);
          (if k = 1 then Table.cell_ratio zcpa_count (List.length structures)
           else "-");
        ])
    (List.init (diam + 1) Fun.id);
  Table.print
    ~title:
      "paper claim: solvability grows with knowledge; RMT-PKA's resilience \
       tracks the solvable column at every level (uniqueness); Z-CPA is \
       pinned to its ad hoc level (constant column, shown at radius-1)"
    t

(* ------------------------------------------------------------------ *)
(* E6 — complexity: 𝒵-CPA polynomial, RMT-PKA exponential              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 — cost scaling on the layered family (width 3, growing depth)";
  let t =
    Table.create
      [
        "n"; "Z-CPA rounds"; "Z-CPA msgs"; "Z-CPA oracle calls"; "Dolev msgs";
        "RMT-PKA msgs"; "RMT-PKA trunc";
      ]
  in
  List.iter
    (fun (n, inst) ->
      let calls, oracle = Zcpa.counting_oracle (Zcpa.direct_oracle inst) in
      let z = Zcpa.run ~oracle inst ~x_dealer:1 in
      let dolev =
        Rmt_protocols.Dolev.run inst.Instance.graph ~dealer:inst.dealer
          ~receiver:inst.receiver ~x_dealer:1
      in
      let pka_cell, trunc_cell =
        if n <= 14 then begin
          let p = Rmt_pka.run ~max_messages:400_000 inst ~x_dealer:1 in
          (Table.cell_int p.messages, Table.cell_bool p.truncated)
        end
        else ("skipped", "-")
      in
      Table.add_row t
        [
          Table.cell_int n;
          Table.cell_int z.rounds;
          Table.cell_int z.messages;
          Table.cell_int !calls;
          Table.cell_int dolev.messages;
          pka_cell;
          trunc_cell;
        ])
    (Workload.scaling_family ~width:3 ~max_depth:10);
  Table.print
    ~title:
      "paper claim: Z-CPA costs grow linearly in n (given the membership \
       oracle); RMT-PKA's path flooding grows exponentially with depth — \
       the efficiency gap motivating Section 5"
    t

(* ------------------------------------------------------------------ *)
(* E7 — the self-reduction (Theorem 9)                                 *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 — 𝒵-CPA with the membership check simulated through Π (Thm 9)";
  let suite = Workload.ad_hoc_suite (Prng.create 707) ~count:25 ~n:8 in
  let t =
    Table.create
      [ "instance"; "direct"; "simulated Π=Z-CPA"; "simulated Π=RMT-PKA"; "agree" ]
  in
  let agreements = ref 0 in
  List.iter
    (fun { Workload.label; instance } ->
      let direct = (Zcpa.run instance ~x_dealer:5).decided in
      let sim_zcpa =
        (Zcpa.run ~decider:(Self_reduction.simulated_decider instance) instance
           ~x_dealer:5)
          .decided
      in
      let sim_pka =
        (Zcpa.run
           ~decider:
             (Self_reduction.simulated_decider ~pi:Self_reduction.rmt_pka_pi
                instance)
           instance ~x_dealer:5)
          .decided
      in
      let agree = direct = sim_zcpa && direct = sim_pka in
      if agree then incr agreements;
      Table.add_row t
        [
          label; dec_str direct; dec_str sim_zcpa; dec_str sim_pka;
          Table.cell_bool agree;
        ])
    suite;
  Table.print
    ~title:
      (Printf.sprintf
         "paper claim: the simulation-based decision protocol is equivalent \
          to the direct membership oracle — agreement %d/%d"
         !agreements (List.length suite))
    t

(* ------------------------------------------------------------------ *)
(* E8 — minimal knowledge frontier                                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 — minimal knowledge radius per topology (§3.1)";
  let rng = Prng.create 808 in
  let t =
    Table.create [ "topology"; "structure"; "diameter"; "minimal radius" ]
  in
  List.iter
    (fun (name, g, dealer, receiver) ->
      let diam = Option.value (Connectivity.diameter g) ~default:0 in
      let structures =
        [
          ("thr-1", Builders.global_threshold g ~dealer 1);
          ( "rand",
            Builders.random_antichain rng g ~dealer ~sets:4
              ~max_size:(max 1 (Graph.num_nodes g / 4)) );
        ]
      in
      List.iter
        (fun (sname, structure) ->
          let k =
            Minimal_knowledge.minimal_radius ~graph:g ~structure ~dealer
              ~receiver
          in
          Table.add_row t
            [
              name; sname; Table.cell_int diam;
              (match k with
               | Minimal_knowledge.Radius k -> Table.cell_int k
               | Minimal_knowledge.Unsolvable -> "unsolvable"
               | Minimal_knowledge.Unknown -> "unknown");
            ])
        structures)
    (Workload.named_topologies ());
  Table.print
    ~title:
      "paper by-product: the RMT-cut decider locates the least knowledge \
       that makes each instance solvable (or proves none does)"
    t

(* ------------------------------------------------------------------ *)
(* E9 — broadcast coverage (Definition 10)                             *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 — Reliable Broadcast coverage (Def 10; the problem RMT refines)";
  let rng = Prng.create 909 in
  let t =
    Table.create
      [ "topology"; "structure"; "broadcast"; "blocked nodes"; "Z-CPA deciders" ]
  in
  List.iter
    (fun (name, g, dealer, receiver) ->
      let structures =
        [
          ("thr-1", Builders.global_threshold g ~dealer 1);
          ( "rand",
            Builders.random_antichain rng g ~dealer ~sets:4
              ~max_size:(max 1 (Graph.num_nodes g / 4)) );
        ]
      in
      List.iter
        (fun (sname, structure) ->
          let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer ~receiver in
          let feas =
            Format.asprintf "%a" Solvability.pp_feasibility
              (Broadcast.solvable inst)
          in
          let blocked = Broadcast.blocked_nodes inst in
          let r = Broadcast.run inst ~x_dealer:1 in
          Table.add_row t
            [
              name; sname; feas;
              Printf.sprintf "%d/%d" (Nodeset.size blocked)
                (Graph.num_nodes g - 1);
              Table.cell_ratio r.deciders r.honest;
            ])
        structures)
    (Util.list_take 6 (Workload.named_topologies ()));
  Table.print
    ~title:
      "context claim ([13] via Thms 7+8): broadcast is solvable iff no node        is blocked; the honest Z-CPA run reaches everyone outside the blocked        set"
    t

(* ------------------------------------------------------------------ *)
(* E10 — Byzantine-resilient topology discovery (conclusion)           *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 — topology discovery from type-2 floods (future-work feature)";
  let rng = Prng.create 1010 in
  let g = Generators.grid 3 4 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 3)
      ~dealer:0 ~receiver:11
  in
  let t =
    Table.create
      [
        "corrupted"; "strategy"; "true edges found"; "false edges"; "phantoms";
        "conflicted";
      ]
  in
  let row label corrupted adversary =
    let db = Discovery.observe ~adversary inst ~observer:11 in
    let acc = Discovery.score inst db in
    Table.add_row t
      [
        (if Nodeset.is_empty corrupted then "-" else Nodeset.to_string corrupted);
        label;
        Table.cell_ratio acc.confirmed_true acc.true_edges;
        Table.cell_int acc.confirmed_false;
        Table.cell_int acc.phantom_nodes;
        Table.cell_int (Nodeset.size (Discovery.conflicted db));
      ]
  in
  row "honest" Nodeset.empty Rmt_net.Engine.no_adversary;
  List.iter
    (fun k ->
      let corrupted =
        Prng.sample rng
          (Nodeset.remove 0 (Nodeset.remove 11 (Graph.nodes g)))
          k
      in
      let menu = Strategy_gen.pka_menu g ~x_fake:1 corrupted in
      List.iter
        (fun label ->
          row label corrupted
            (Strategy_gen.compile_pka (List.assoc label menu) inst ~x_dealer:0))
        [ "silent"; "topology-liar"; "fuzz" ])
    [ 1; 2; 3 ];
  Table.print
    ~title:
      "claim: bilateral confirmation never admits a fake edge (both        endpoints would have to be corrupted); silence only hides the        corrupted nodes' own links; conflicts expose interference"
    t

(* ------------------------------------------------------------------ *)
(* E11 — exhaustive tightness on small worlds                          *)
(* ------------------------------------------------------------------ *)

(* Every adversary structure with at most two maximal sets over the
   non-dealer nodes of a small graph — no sampling, no blind spots. *)
let all_two_set_structures ground =
  let subsets = ref [] in
  Nodeset.subsets_iter ground (fun z -> subsets := z :: !subsets);
  let subsets = Array.of_list !subsets in
  let n = Array.length subsets in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      out := Structure.of_sets ~ground [ subsets.(i); subsets.(j) ] :: !out
    done
  done;
  (* antichain reduction may collapse equal structures; deduplicate *)
  List.sort_uniq
    (fun a b -> compare (Structure.to_string a) (Structure.to_string b))
    !out

let e11 () =
  section "E11 — exhaustive tightness: every ≤2-set structure on small graphs";
  let t =
    Table.create
      [ "graph"; "structures"; "solvable"; "unsolvable"; "mismatches" ]
  in
  List.iter
    (fun (name, g, receiver) ->
      let ground = Nodeset.remove 0 (Graph.nodes g) in
      let structures = all_two_set_structures ground in
      let solvable = ref 0 and unsolvable = ref 0 and mismatches = ref 0 in
      List.iter
        (fun structure ->
          let inst = Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver in
          match Solvability.partial_knowledge inst with
          | Solvability.Solvable ->
            incr solvable;
            if not (resilient Campaign.Pka inst) then incr mismatches
          | Solvability.Unsolvable ->
            incr unsolvable;
            (match (Cut.find_rmt_cut inst).cut_found with
             | None -> incr mismatches
             | Some w ->
               let v = Attack.against_rmt_pka inst w ~x0:0 ~x1:1 in
               if v.decision_e <> None || v.decision_e' <> None then
                 incr mismatches)
          | Solvability.Unknown -> incr mismatches)
        structures;
      Table.add_row t
        [
          name;
          Table.cell_int (List.length structures);
          Table.cell_int !solvable;
          Table.cell_int !unsolvable;
          Table.cell_int !mismatches;
        ])
    [
      ("cycle-5", Generators.cycle 5, 2);
      ("path-4", Generators.path_graph 4, 3);
      ("diamond+tail", Graph.of_edges [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ], 4);
    ];
  Table.print
    ~title:
      "paper claim, checked without sampling: behavior matches the RMT-cut        verdict for EVERY structure with ≤2 maximal sets (mismatches = 0)"
    t

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "A — ablations of the implementation choices (DESIGN.md §4)";
  (* A1: local Z_B membership (one test per member of B, no join) vs
     the naive decider that joins Z_B for every enumerated component *)
  let t1 =
    Table.create [ "instance"; "local membership"; "naive joins"; "speedup" ]
  in
  List.iter
    (fun (name, g, receiver) ->
      (* use solvable instances so the enumeration is exhaustive — the
         worst (and common) case for the decider *)
      let structure =
        Builders.global_threshold g ~dealer:0 1
      in
      let inst =
        Instance.make ~graph:g ~structure ~view:(View.radius 2 g) ~dealer:0
          ~receiver
      in
      let time f =
        let (_, s) = Timing.time_it (fun () -> List.init 5 (fun _ -> f inst)) in
        s /. 5.
      in
      let local = time Cut.find_rmt_cut in
      let naive = time Cut.find_rmt_cut_naive in
      Table.add_row t1
        [
          name;
          Printf.sprintf "%.2f ms" (local *. 1e3);
          Printf.sprintf "%.2f ms" (naive *. 1e3);
          Printf.sprintf "%.1fx" (naive /. max 1e-9 local);
        ])
    [
      ("layered-3x2", Generators.layered ~width:3 ~depth:2, 7);
      ("layered-3x3", Generators.layered ~width:3 ~depth:3, 10);
      ("layered-4x3", Generators.layered ~width:4 ~depth:3, 13);
    ];
  Table.print
    ~title:
      "A1 — RMT-cut decider: testing Z_B membership member by member beats \
       joining Z_B per component"
    t1;
  (* A2: ⊕ cost vs antichain size *)
  let t2 = Table.create [ "antichain sizes"; "join time"; "result maximal sets" ] in
  let rng = Prng.create 222 in
  List.iter
    (fun sets ->
      let s1 = random_structure rng ~universe:18 ~sets ~max_size:6 in
      let s2 = random_structure rng ~universe:18 ~sets ~max_size:6 in
      let (j, secs) =
        Timing.time_it (fun () ->
            let j = ref (Joint.join s1 s2) in
            for _ = 2 to 50 do
              j := Joint.join s1 s2
            done;
            !j)
      in
      Table.add_row t2
        [
          Printf.sprintf "%dx%d" (Structure.num_maximal s1)
            (Structure.num_maximal s2);
          Printf.sprintf "%.1f µs" (secs /. 50. *. 1e6);
          Table.cell_int (Structure.num_maximal j);
        ])
    [ 4; 8; 16; 32; 64 ];
  Table.print ~title:"A2 — ⊕ join scales with the antichain product" t2;
  (* A3: RMT-PKA receiver budget sensitivity under a lying adversary *)
  let t3 =
    Table.create [ "subset budget"; "decided"; "truncated"; "time" ]
  in
  let g = Generators.grid 3 4 in
  let inst =
    Instance.make ~graph:g
      ~structure:
        (Builders.from_maximal g ~dealer:0
           [ Nodeset.of_list [ 5 ]; Nodeset.of_list [ 6 ];
             Nodeset.of_list [ 7; 8 ] ])
      ~view:(View.radius 2 g) ~dealer:0 ~receiver:11
  in
  let corrupted = Nodeset.of_list [ 6 ] in
  List.iter
    (fun subset_budget ->
      (* mimic-based strategies are single-run values: rebuild per run *)
      let adversary =
        Strategy_gen.compile_pka
          (Program.uniform ~seed:0 corrupted Program.Honest
             [ Program.Lie_topology ])
          inst ~x_dealer:5
      in
      let budgets = { Rmt_pka.default_budgets with subset_budget } in
      let (r, secs) =
        Timing.time_it (fun () -> Rmt_pka.run ~budgets ~adversary inst ~x_dealer:5)
      in
      Table.add_row t3
        [
          Table.cell_int subset_budget;
          dec_str r.decided;
          Table.cell_bool r.truncated;
          Printf.sprintf "%.1f ms" (secs *. 1e3);
        ])
    [ 1; 4; 16; 64; 256; 4000 ];
  Table.print
    ~title:
      "A3 — receiver search budgets trade liveness for work, never safety:        small budgets report truncation and withhold, they never mis-decide"
    t3

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Shared Bechamel runner: OLS fit per test, (name, ns/run, r²) rows. *)
let run_bechamel ?(quota = 0.5) tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw =
    Benchmark.all cfg
      [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"rmt" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> nan
      in
      (name, ns, r2) :: acc)
    results []
  |> List.sort compare

let pretty_ns x =
  if x > 1e9 then Printf.sprintf "%.2f s" (x /. 1e9)
  else if x > 1e6 then Printf.sprintf "%.2f ms" (x /. 1e6)
  else if x > 1e3 then Printf.sprintf "%.2f µs" (x /. 1e3)
  else Printf.sprintf "%.0f ns" x

let print_bechamel_rows rows =
  let t = Table.create [ "benchmark"; "time/run"; "r²" ] in
  List.iter
    (fun (name, ns, r2) ->
      Table.add_row t [ name; pretty_ns ns; Printf.sprintf "%.3f" r2 ])
    rows;
  Table.print t

let bechamel () =
  section "Micro-benchmarks (Bechamel, one per experiment)";
  let open Bechamel in
  let rng = Prng.create 909 in
  let s1 = random_structure rng ~universe:16 ~sets:10 ~max_size:6 in
  let s2 = random_structure rng ~universe:16 ~sets:10 ~max_size:6 in
  let sub = Nodeset.range 3 12 in
  let layered =
    Instance.ad_hoc_of
      ~graph:(Generators.layered ~width:3 ~depth:2)
      ~structure:
        (Builders.global_threshold (Generators.layered ~width:3 ~depth:2)
           ~dealer:0 1)
      ~dealer:0 ~receiver:7
  in
  let grid_inst =
    let g = Generators.grid 3 3 in
    Instance.make ~graph:g
      ~structure:(Builders.random_antichain (Prng.create 11) g ~dealer:0 ~sets:4 ~max_size:2)
      ~view:(View.radius 2 g) ~dealer:0 ~receiver:8
  in
  let middle = Nodeset.range 1 5 in
  let basic_structure = Structure.threshold ~ground:middle 1 in
  let tests =
    [
      Test.make ~name:"e1-join" (Staged.stage (fun () -> Joint.join s1 s2));
      Test.make ~name:"e1-restrict"
        (Staged.stage (fun () -> Structure.restrict sub s1));
      Test.make ~name:"e3-rmt-cut-decider"
        (Staged.stage (fun () -> Cut.find_rmt_cut grid_inst));
      Test.make ~name:"e4-zpp-cut-decider"
        (Staged.stage (fun () -> Cut.find_rmt_zpp_cut layered));
      Test.make ~name:"e2-rmt-pka-run"
        (Staged.stage (fun () -> Rmt_pka.run layered ~x_dealer:1));
      Test.make ~name:"e6-zcpa-run"
        (Staged.stage (fun () -> Zcpa.run layered ~x_dealer:1));
      Test.make ~name:"e7-basic-cosimulation"
        (Staged.stage (fun () ->
             let inst =
               Self_reduction.basic_instance ~dealer:0 ~receiver:9 ~middle
                 ~structure:basic_structure
             in
             Attack.co_simulate ~graph:inst.graph ~c1:(Nodeset.of_list [ 1 ])
               ~c2:(Nodeset.of_list [ 2 ])
               (Zcpa.automaton
                  ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
                  inst ~x_dealer:0)
               (Zcpa.automaton
                  ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
                  inst ~x_dealer:1)
               ~receiver:9));
      Test.make ~name:"e8-minimal-radius"
        (Staged.stage (fun () ->
             Minimal_knowledge.minimal_radius
               ~graph:grid_inst.Instance.graph
               ~structure:grid_inst.Instance.structure ~dealer:0 ~receiver:8));
    ]
  in
  print_bechamel_rows (run_bechamel tests)

(* ------------------------------------------------------------------ *)
(* Core engine benchmark: packed antichain kernels vs the list baseline *)
(* ------------------------------------------------------------------ *)

(* The pre-overhaul list representation of antichains, kept verbatim as
   the measurement baseline: un-prefiltered O(k²) reduce, linear-scan mem,
   materialize-then-reduce join. *)
module List_antichain = struct
  let reduce sets =
    let sorted = List.sort_uniq Nodeset.compare sets in
    List.filter
      (fun z ->
        not
          (List.exists
             (fun z' -> (not (Nodeset.equal z z')) && Nodeset.subset z z')
             sorted))
      sorted

  let mem z maximal = List.exists (fun m -> Nodeset.subset z m) maximal

  let join (a, max_e) (b, max_f) =
    let candidates =
      List.concat_map
        (fun m1 ->
          List.map
            (fun m2 ->
              Nodeset.union
                (Nodeset.union (Nodeset.diff m1 b) (Nodeset.diff m2 a))
                (Nodeset.inter m1 m2))
            max_f)
        max_e
    in
    reduce candidates
end

(* Antichain of [sets] distinct fixed-size subsets: no set dominates
   another, so the antichain size equals the candidate count. *)
let fixed_size_antichain rng ~universe ~sets ~set_size =
  let ground = Nodeset.range 0 universe in
  let rec distinct acc n =
    if n = 0 then acc
    else
      let z = Prng.sample rng ground set_size in
      if List.exists (Nodeset.equal z) acc then distinct acc n
      else distinct (z :: acc) (n - 1)
  in
  (ground, distinct [] sets)

let core () =
  section "CORE — antichain engine micro-benchmarks (packed vs list) and \
           multicore sweep scaling";
  let open Bechamel in
  let rng = Prng.create 4242 in
  let sizes = [ 16; 64; 128 ] in
  let inputs =
    List.map
      (fun k ->
        let ground, sets =
          fixed_size_antichain rng ~universe:24 ~sets:k ~set_size:8
        in
        (* reduce workload: the antichain plus one random proper subset of
           each set — half the candidates are dominated and must go *)
        let dominated =
          List.map (fun z -> Prng.sample rng z (Nodeset.size z - 2)) sets
        in
        (* mem workload: half certain members (subsets of maximal sets),
           half random probes that are almost surely non-members *)
        let queries =
          Array.init 64 (fun i ->
              if i mod 2 = 0 then
                Prng.sample rng (List.nth sets (i mod k)) 5
              else Prng.sample rng ground 8)
        in
        (k, ground, sets, sets @ dominated, queries))
      sizes
  in
  let packed =
    List.map
      (fun (k, ground, sets, _, _) ->
        (k, Structure.of_sets ~ground sets))
      inputs
  in
  let tests =
    List.concat_map
      (fun (k, ground, sets, reduce_input, queries) ->
        let s = List.assoc k packed in
        [
          Test.make
            ~name:(Printf.sprintf "reduce/list/%d" k)
            (Staged.stage (fun () -> List_antichain.reduce reduce_input));
          Test.make
            ~name:(Printf.sprintf "reduce/packed/%d" k)
            (Staged.stage (fun () -> Structure.reduce reduce_input));
          Test.make
            ~name:(Printf.sprintf "mem/list/%d" k)
            (Staged.stage (fun () ->
                 Array.iter
                   (fun z -> ignore (List_antichain.mem z sets))
                   queries));
          Test.make
            ~name:(Printf.sprintf "mem/packed/%d" k)
            (Staged.stage (fun () ->
                 Array.iter (fun z -> ignore (Structure.mem z s)) queries));
          Test.make
            ~name:(Printf.sprintf "join/list/%d" k)
            (Staged.stage (fun () ->
                 List_antichain.join (ground, sets) (ground, sets)));
          Test.make
            ~name:(Printf.sprintf "join/packed/%d" k)
            (Staged.stage (fun () -> Joint.join s s));
        ])
      inputs
  in
  let decider_tests =
    let grid_inst =
      let g = Generators.grid 3 4 in
      Instance.make ~graph:g
        ~structure:
          (Builders.random_antichain (Prng.create 11) g ~dealer:0 ~sets:6
             ~max_size:3)
        ~view:(View.radius 2 g) ~dealer:0 ~receiver:11
    in
    let layered =
      let g = Generators.layered ~width:3 ~depth:3 in
      Instance.ad_hoc_of ~graph:g
        ~structure:(Builders.global_threshold g ~dealer:0 1)
        ~dealer:0 ~receiver:10
    in
    (* thr-2 over radius-1 views, n = 14: 𝒵 has C(13, 2) = 78 maximal
       sets, the class where building 𝒵_B by ⊕ joins took ~88% of the
       decider's time; n14/41 of test/core/fixtures/cut_verdicts.golden,
       exhaustive (no cut) *)
    let thr2_inst =
      (List.nth
         (Workload.tightness_suite (Prng.create 1714) ~count:42 ~n:14)
         41)
        .instance
    in
    (* The cold row: both deciders over a fixed 32-instance batch at
       n = 14 covering all four suite classes, as one-shot verdicts on
       fresh instances run; the other cut rows repeat one instance *)
    let suite_batch =
      List.map
        (fun (l : Workload.labelled) -> l.instance)
        (Workload.tightness_suite (Prng.create 1714) ~count:32 ~n:14)
    in
    [
      Test.make ~name:"cut/suite"
        (Staged.stage (fun () ->
             List.iter
               (fun inst ->
                 ignore (Cut.find_rmt_cut inst);
                 ignore (Cut.find_rmt_zpp_cut inst))
               suite_batch));
      Test.make ~name:"cut/rmt"
        (Staged.stage (fun () -> Cut.find_rmt_cut grid_inst));
      Test.make ~name:"cut/rmt-thr2"
        (Staged.stage (fun () -> Cut.find_rmt_cut thr2_inst));
      Test.make ~name:"cut/rmt-naive"
        (Staged.stage (fun () -> Cut.find_rmt_cut_naive grid_inst));
      Test.make ~name:"cut/zpp"
        (Staged.stage (fun () -> Cut.find_rmt_zpp_cut layered));
    ]
  in
  let nodeset_tests =
    (* The set kernels under every decider, on 64 random pairs per run:
       14-node sets fit in one word (the regime of every rmtbench
       workload), sets over ids 0–150 span three words.  [subset] pairs
       each set with a superset, so every run scans all words. *)
    List.concat_map
      (fun (width, universe) ->
        let draw () = Prng.subset rng (Nodeset.range 0 universe) 0.5 in
        let pairs = Array.init 64 (fun _ -> (draw (), draw ())) in
        let supersets =
          Array.map (fun (a, b) -> (a, Nodeset.union a b)) pairs
        in
        let over name pairs op =
          Test.make
            ~name:(Printf.sprintf "nodeset/%s/%s" name width)
            (Staged.stage (fun () ->
                 Array.iter
                   (fun (a, b) -> ignore (Sys.opaque_identity (op a b)))
                   pairs))
        in
        [
          over "union" pairs Nodeset.union;
          over "inter" pairs Nodeset.inter;
          over "diff" pairs Nodeset.diff;
          over "subset" supersets Nodeset.subset;
          (let sum = ref 0 in
           over "iter" pairs (fun a _ ->
               Nodeset.iter (fun v -> sum := !sum + v) a));
        ])
      [ ("1w", 14); ("3w", 151) ]
  in
  let service_tests =
    (* One service round trip: toggle a same-layer edge that never touches
       the RMT cut, then query.  Every update bumps the generation, and
       every query settles by re-checking the previous witness
       (Cut.update's cheap regime) instead of re-searching. *)
    let g = Generators.layered ~width:3 ~depth:3 in
    let svc =
      Service.create
        (Instance.ad_hoc_of ~graph:g
           ~structure:(Builders.global_threshold g ~dealer:0 1)
           ~dealer:0 ~receiver:10)
    in
    let apply d =
      match Service.apply svc d with
      | Ok () -> ()
      | Error m -> failwith ("service bench: " ^ m)
    in
    (* one setup delta makes the instance unsolvable with a cut witness *)
    apply (Delta.Add_set (Nodeset.of_list [ 4; 5 ]));
    ignore (Service.solvable svc);
    [
      Test.make ~name:"service/toggle"
        (Staged.stage (fun () ->
             apply
               (if Graph.mem_edge 1 2 (Service.instance svc).graph then
                  Delta.Remove_edge (1, 2)
                else Delta.Add_edge (1, 2));
             Service.solvable svc));
    ]
  in
  (* 2s quota (vs the 0.5s default): the 16-set mem/reduce rows finish in
     tens of ns, and at 0.5s the OLS fit on them was mush (r² ≈ 0.1).  The
     cut deciders get 5s: at 2s the 20–80 µs rmt/cut/rmt fit read r² 0.87
     on a noisy host *)
  let rows =
    List.sort compare
      (run_bechamel ~quota:2.0
         (tests @ nodeset_tests @ service_tests)
      @ run_bechamel ~quota:5.0 decider_tests)
  in
  print_bechamel_rows rows;
  (* packed-vs-list speedups per (operation, antichain size) *)
  let ns_of name =
    match List.find_opt (fun (n, _, _) -> n = "rmt/" ^ name) rows with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  let speedups =
    List.concat_map
      (fun k ->
        List.map
          (fun op ->
            let list_ns = ns_of (Printf.sprintf "%s/list/%d" op k) in
            let packed_ns = ns_of (Printf.sprintf "%s/packed/%d" op k) in
            (op, k, list_ns, packed_ns, list_ns /. packed_ns))
          [ "reduce"; "mem"; "join" ])
      sizes
  in
  let t = Table.create [ "operation"; "antichain"; "list"; "packed"; "speedup" ] in
  List.iter
    (fun (op, k, list_ns, packed_ns, s) ->
      Table.add_row t
        [
          op; Table.cell_int k; pretty_ns list_ns; pretty_ns packed_ns;
          Printf.sprintf "%.1fx" s;
        ])
    speedups;
  Table.print ~title:"packed antichain kernels vs the list baseline" t;
  (* multicore sweep scaling on the E3 classification workload *)
  let suite =
    Array.of_list (Workload.tightness_suite (Prng.create 303) ~count:60 ~n:9)
  in
  let runs =
    let wanted = [ 1; 2; 4 ] in
    let rec uniq = function
      | [] -> []
      | d :: rest -> d :: uniq (List.filter (( <> ) d) rest)
    in
    uniq (wanted @ [ Parsweep.recommended_domains () ])
  in
  let timings =
    List.map
      (fun d ->
        let results, secs = Timing.time_with_domains ~domains:d e3_classify suite in
        (d, secs, results))
      runs
  in
  let _, _, reference = List.hd timings in
  let deterministic =
    List.for_all (fun (_, _, r) -> r = reference) timings
  in
  let t = Table.create [ "domains"; "wall-clock"; "speedup vs 1" ] in
  let base = match timings with (_, s, _) :: _ -> s | [] -> nan in
  List.iter
    (fun (d, secs, _) ->
      Table.add_row t
        [
          Table.cell_int d;
          Printf.sprintf "%.2f s" secs;
          Printf.sprintf "%.2fx" (base /. secs);
        ])
    timings;
  Table.print
    ~title:
      (Printf.sprintf
         "E3 sweep (60 instances) under the multicore driver — results \
          %s across domain counts; %d core(s) available"
         (if deterministic then "bit-for-bit identical" else "DIVERGED (bug!)")
         (Parsweep.recommended_domains ()))
    t;
  timed_rows rows
  @ List.map
      (fun (d, secs, _) ->
        {
          name = Printf.sprintf "sweep/domains-%d" d;
          fields =
            [
              ("instances", jint (Array.length suite));
              ("deterministic", jbool deterministic); ("seconds", jnum 3 secs);
            ];
        })
      timings

(* ------------------------------------------------------------------ *)
(* ATTACK — adversarial fuzzing campaigns over the checked-in instances *)
(* ------------------------------------------------------------------ *)


let attack_seed = 2016
let attack_count = 60

let attack_instances () =
  let dir = "instances" in
  let from_files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".rmt")
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             match Codec.of_file path with
             | Ok inst -> (Filename.chop_suffix f ".rmt", inst)
             | Error e ->
               Printf.eprintf "bench: %s: %s\n" path e;
               exit 1)
    else []
  in
  if from_files <> [] then from_files
  else begin
    (* running outside the repo root: one synthetic stand-in *)
    let g = Generators.layered ~width:3 ~depth:2 in
    let receiver =
      List.fold_left
        (fun (bv, bd) (v, d) -> if d > bd then (v, d) else (bv, bd))
        (0, 0)
        (Connectivity.distances_from g 0)
      |> fst
    in
    [
      ( "layered_3x2",
        Instance.ad_hoc_of ~graph:g
          ~structure:(Builders.global_threshold g ~dealer:0 1)
          ~dealer:0 ~receiver );
    ]
  end

let attack () =
  section
    (Printf.sprintf
       "ATTACK — seeded fuzzing campaigns (%d programs per protocol, seed %d)"
       attack_count attack_seed);
  let t =
    Table.create
      [
        "instance"; "protocol"; "feasibility"; "delivered"; "silenced";
        "violated"; "liveness lost"; "SAFETY VIOLATIONS";
      ]
  in
  let protocols = Campaign.[ Pka; Ppa; Zcpa ] in
  let rows =
    List.concat_map
      (fun (name, inst) ->
        List.map
          (fun p ->
            let r =
              Campaign.run ~domains:(sweep_domains ()) ~seed:attack_seed
                ~attacks:attack_count p inst
            in
            let nviol = List.length r.Campaign.safety_violations in
            let protocol = Campaign.protocol_to_string p in
            let feasibility =
              Format.asprintf "%a" Solvability.pp_feasibility
                r.Campaign.solvability
            in
            Table.add_row t
              [
                name;
                protocol;
                feasibility;
                Table.cell_int r.Campaign.delivered;
                Table.cell_int r.Campaign.silenced;
                Table.cell_int r.Campaign.violated;
                Table.cell_int r.Campaign.liveness_lost;
                Table.cell_int nviol;
              ];
            {
              name = Printf.sprintf "campaign/%s/%s" name protocol;
              fields =
                [
                  ("feasibility", jstr feasibility);
                  ("seed", jint attack_seed);
                  ("attacks", jint r.Campaign.trials);
                  ("delivered", jint r.Campaign.delivered);
                  ("silenced", jint r.Campaign.silenced);
                  ("violated", jint r.Campaign.violated);
                  ("liveness_lost", jint r.Campaign.liveness_lost);
                  ("safety_violations", jint nviol);
                ];
            })
          protocols)
      (attack_instances ())
  in
  Table.print
    ~title:
      "paper claim (Thm 4): 0 safety violations on every instance; silence \
       on unsolvable ones witnesses the cut"
    t;
  rows

(* ------------------------------------------------------------------ *)
(* SIM — simulator overhead vs the synchronous engine                  *)
(* ------------------------------------------------------------------ *)

let sim () =
  section
    "SIM — deterministic simulator: overhead vs the engine, sweep throughput";
  let name, inst = List.hd (attack_instances ()) in
  Printf.printf "  instance: %s\n" name;
  let open Bechamel in
  let protocols =
    Campaign.[ ("pka", Pka); ("ppa", Ppa); ("zcpa", Zcpa) ]
  in
  let program = Rmt_attack.Program.make ~seed:attack_seed [] in
  (* policies are single-run values: build a fresh one inside every
     staged run so Bechamel's repetitions stay legal *)
  let tests =
    List.concat_map
      (fun (pname, p) ->
        [
          Test.make
            ~name:(Printf.sprintf "sim/engine/%s" pname)
            (Staged.stage (fun () ->
                 Campaign.execute p inst ~x_dealer:5 program));
          Test.make
            ~name:(Printf.sprintf "sim/sync/%s" pname)
            (Staged.stage (fun () ->
                 Campaign.execute
                   ~runner:(Rmt_sim.Sim_exec.runner ~policy:Rmt_sim.Policy.sync)
                   p inst ~x_dealer:5 program));
          Test.make
            ~name:(Printf.sprintf "sim/timely/%s" pname)
            (Staged.stage (fun () ->
                 Campaign.execute
                   ~runner:
                     (Rmt_sim.Sim_exec.runner
                        ~policy:
                          (Rmt_sim.Policy.random (Prng.create 7)
                             Rmt_sim.Policy.timely_params))
                   p inst ~x_dealer:5 program));
        ])
      protocols
  in
  (* The attacked onion PKA run, the receiver's full-set search at work:
     program seed 9 on onion_solvable forges reports that split the
     receiver's search into four conflict branches.  Runs like this one
     dominate rmtbench's attack workload. *)
  let onion_tests =
    match List.assoc_opt "onion_solvable" (attack_instances ()) with
    | None -> []
    | Some onion ->
      let program =
        Rmt_attack.Strategy_gen.random (Prng.create 9) onion ~x_dealer:5
          ~x_fake:6
      in
      [
        Test.make ~name:"sim/engine/pka-onion"
          (Staged.stage (fun () ->
               Campaign.execute Campaign.Pka onion ~x_dealer:5 program));
        Test.make ~name:"sim/timely/pka-onion"
          (Staged.stage (fun () ->
               Campaign.execute
                 ~runner:
                   (Rmt_sim.Sim_exec.runner
                      ~policy:
                        (Rmt_sim.Policy.random (Prng.create 7)
                           Rmt_sim.Policy.timely_params))
                 Campaign.Pka onion ~x_dealer:5 program));
      ]
  in
  (* 2s quota (vs the 0.5s default), as for the core rows: at 0.5s the
     OLS fit on the engine/ppa and sync/zcpa rows was noise (r² ≈ 0.46
     and 0.48), so check_regression's r² < 0.5 rule silently skipped
     them and those baselines gated nothing.  The millisecond onion runs
     get 10s: at 2s the fit sees too few samples to reach r² 0.9. *)
  let rows = run_bechamel ~quota:2.0 tests in
  let onion_rows = run_bechamel ~quota:10.0 onion_tests in
  print_bechamel_rows (List.sort compare (rows @ onion_rows));
  (* sweep throughput: seeded (program, schedule) trials per second *)
  let sweep_trials = 200 in
  let report, secs =
    Timing.time_it (fun () ->
        Rmt_sim.Sweep.run ~domains:(sweep_domains ()) ~seed:attack_seed
          ~schedules:sweep_trials Campaign.Pka inst)
  in
  let throughput = float_of_int report.Campaign.trials /. secs in
  Printf.printf
    "  sweep: %d timely schedules in %.2fs (%.0f/s), %d safety violations\n"
    report.Campaign.trials secs throughput
    (List.length report.Campaign.safety_violations);
  timed_rows ~fields:[ ("instance", jstr name) ] rows
  @ timed_rows ~fields:[ ("instance", jstr "onion_solvable") ] onion_rows
  @ [
      {
        name = "sweep";
        fields =
          [
            ("instance", jstr name);
            ("schedules", jint report.Campaign.trials);
            ("seconds", jnum 3 secs);
            ( "safety_violations",
              jint (List.length report.Campaign.safety_violations) );
          ];
      };
    ]

(* ------------------------------------------------------------------ *)
(* NET — the round loop: synchronous rounds at scale                   *)
(* ------------------------------------------------------------------ *)

(* heartbeat: every node multicasts a round counter to all neighbors
   for [beats] rounds, then decides — n(n-1) deliveries per round on
   the complete graph, the raw message-throughput stressor *)
let heartbeat_automaton g ~beats =
  let open Rmt_net.Engine in
  let broadcast v x =
    Nodeset.fold
      (fun u acc -> { dst = u; payload = x } :: acc)
      (Graph.neighbors v g) []
  in
  {
    init = (fun v -> (ref 0, broadcast v 0));
    step =
      (fun v st ~round ~inbox:_ ->
        st := round;
        if round < beats then (st, broadcast v round) else (st, []));
    decision = (fun st -> if !st >= beats then Some !st else None);
  }

(* flood: node 0 originates a value, everyone adopts the first value
   heard and forwards it once — the decision-latency workload (every
   player decides, at its hop distance) *)
type net_gossip = { mutable value : int option }

let flood_automaton g ~origin ~value =
  let open Rmt_net.Engine in
  let broadcast v x =
    Nodeset.fold
      (fun u acc -> { dst = u; payload = x } :: acc)
      (Graph.neighbors v g) []
  in
  {
    init =
      (fun v ->
        if v = origin then ({ value = Some value }, broadcast v value)
        else ({ value = None }, []));
    step =
      (fun v st ~round:_ ~inbox ->
        match (st.value, inbox) with
        | None, (_, x) :: _ ->
          st.value <- Some x;
          (st, broadcast v x)
        | _ -> (st, []));
    decision = (fun st -> st.value);
  }

let net () =
  section "NET — the round loop: synchronous rounds at scale";
  (* n = 200 complete graph, 25 beats: ~1M delivered messages per run *)
  let hb_n = 200 and beats = 25 in
  let hb_g = Generators.complete hb_n in
  let hb = heartbeat_automaton hb_g ~beats in
  let fl_g = Generators.layered ~width:10 ~depth:15 in
  let fl_n = Graph.num_nodes fl_g in
  let fl = flood_automaton fl_g ~origin:0 ~value:7 in
  Printf.printf
    "  workloads: heartbeat (complete n=%d, %d rounds), flood (layered \
     n=%d)\n"
    hb_n beats fl_n;
  let run_workload wname g automaton =
    let run () =
      let o =
        Rmt_net.Engine.run ~graph:g ~adversary:Rmt_net.Engine.no_adversary
          automaton
      in
      let open Rmt_net.Transport in
      if o.stats.truncated then
        failwith (Printf.sprintf "net bench: engine/%s truncated" wname);
      (o.stats.messages, List.length o.decisions, o.stats.rounds)
    in
    ignore (run ());
    let (msgs, decs, rounds), secs = Timing.time_it run in
    (wname, Graph.num_nodes g, msgs, decs, rounds, secs)
  in
  let rows = [ run_workload "heartbeat" hb_g hb; run_workload "flood" fl_g fl ] in
  let t =
    Table.create
      [
        "workload"; "messages"; "rounds"; "wall-clock"; "msgs/sec";
        "decisions/sec";
      ]
  in
  List.iter
    (fun (w, _, msgs, decs, rounds, secs) ->
      Table.add_row t
        [
          w; Table.cell_int msgs; Table.cell_int rounds;
          Printf.sprintf "%.3f s" secs;
          Printf.sprintf "%.2e" (float_of_int msgs /. secs);
          Printf.sprintf "%.0f" (float_of_int decs /. secs);
        ])
    rows;
  Table.print ~title:"engine round loop" t;
  List.map
    (fun (w, n, msgs, decs, rounds, secs) ->
      wall_row ("rmt/net/engine/" ^ w) secs
        ~fields:
          [
            ("n", jint n); ("messages", jint msgs); ("decisions", jint decs);
            ("rounds", jint rounds);
          ])
    rows

(* ------------------------------------------------------------------ *)
(* LINT — analyzer wall-time, whole pass and its two assembly stages   *)
(* ------------------------------------------------------------------ *)

let lint () =
  section "rmt-lint analyzer: one pass, summary inference, model assembly";
  let module L = Rmt_lint in
  let build_dir = "_build/default" and dirs = [ "lib" ] in
  (* What `rmt_lint check` does: read the typedtrees, walk each once,
     infer the summary store, assemble the model, run every rule. *)
  let pass () =
    match L.Cmt_loader.scan ~build_dir ~dirs with
    | Error e -> failwith ("lint bench: " ^ e)
    | Ok us ->
      let units = List.map L.Lint.scanned_of us in
      let model = L.Lint.model_of units in
      let findings =
        L.Lint.findings_of units
          (L.Summary.infer (L.Lint.graph_of units))
          model
      in
      (units, List.length findings, model)
  in
  (* single-shot wall-clock rows: the median of [n] runs, so one GC
     pause or host hiccup does not move the record *)
  let median n f =
    let runs = List.init n (fun _ -> Timing.time_it f) in
    let secs = List.sort Float.compare (List.map snd runs) in
    (List.map fst runs, List.nth secs (n / 2))
  in
  let passes, pass_s = median 3 pass in
  let units, findings, model = List.hd passes in
  let graph = L.Lint.graph_of units in
  let _, infer_s = median 5 (fun () -> L.Summary.infer graph) in
  let assembled, model_s = median 5 (fun () -> L.Lint.model_of units) in
  let fingerprint = L.Model.fingerprint model in
  if
    List.exists (fun (_, f, _) -> f <> findings) passes
    || List.exists
         (fun m -> not (String.equal (L.Model.fingerprint m) fingerprint))
         (List.map (fun (_, _, m) -> m) passes @ assembled)
  then failwith "lint bench: runs disagree on findings or model fingerprint";
  Printf.printf
    "  pass: %.3fs   (%d units, %d findings)\n\
    \  summaries: infer %.3fs\n\
    \  model: assemble %.3fs   (%d protocols, fingerprints agree)\n"
    pass_s (List.length units) findings infer_s model_s
    (List.length model.L.Model.protocols);
  List.map
    (fun (k, secs) -> wall_row ("rmt/lint/" ^ k) secs)
    [ ("pass", pass_s); ("summaries", infer_s); ("model", model_s) ]
  @ [
      {
        name = "scan";
        fields =
          [ ("units", jint (List.length units)); ("findings", jint findings) ];
      };
      {
        name = "model";
        fields =
          [
            ("protocols", jint (List.length model.L.Model.protocols));
            ("fingerprint", jstr fingerprint);
          ];
      };
    ]

(* ------------------------------------------------------------------ *)
(* CERTIFIED — certification overhead and the solvability frontier     *)
(* ------------------------------------------------------------------ *)

let boundary_instance_path = "test/protocols/fixtures/boundary.rmt"

(* delay 2, 2 drops: inside Envelope.default (delay 3, 2 drops) *)
let envelope_params =
  {
    Rmt_sim.Policy.delay_bound = 2;
    p_late = 0.1;
    p_reorder = 0.2;
    key_bound = 4;
    p_dup = 0.05;
    p_drop = 0.02;
    drop_budget = 2;
  }

let certified () =
  section
    "CERTIFIED — echo/vote certification: overhead vs raw protocols, \
     frontier sweep throughput";
  let name, inst = List.hd (attack_instances ()) in
  Printf.printf "  instance: %s\n" name;
  let open Bechamel in
  let program = Rmt_attack.Program.make ~seed:attack_seed [] in
  (* cert/<backend>/<p> vs cert/raw/<p>: the certification tier's
     redundant flooding (slots copies, echo votes, tick keep-alive)
     against the unwrapped protocol on the same instance *)
  let pairs =
    Campaign.[ ("pka", Pka, Cert_pka); ("ppa", Ppa, Cert_ppa) ]
  in
  (* cert/envelope/<p>: the certified tier where it is meant to run, on
     the simulator under a seeded scheduler that delays, reorders,
     duplicates and drops inside its envelope; a policy is single-run,
     so every run builds a fresh one from the same seed *)
  if
    not
      (Rmt_sim.Envelope_check.params_within envelope_params
         Rmt_protocols.Envelope.default)
  then failwith "certified: envelope_params outside Envelope.default";
  let engine () = Campaign.engine_runner in
  let sync () = Rmt_sim.Sim_exec.runner ~policy:Rmt_sim.Policy.sync in
  let envelope () =
    Rmt_sim.Sim_exec.runner
      ~policy:(Rmt_sim.Policy.random (Prng.create 7) envelope_params)
  in
  let cases =
    List.concat_map
      (fun (pname, raw, cert) ->
        [
          ("cert/raw/" ^ pname, engine, raw);
          ("cert/engine/" ^ pname, engine, cert);
          ("cert/sync/" ^ pname, sync, cert);
          ("cert/envelope/" ^ pname, envelope, cert);
        ])
      pairs
  in
  let tests =
    List.map
      (fun (name, runner, protocol) ->
        Test.make ~name
          (Staged.stage (fun () ->
               Campaign.execute ~runner:(runner ()) protocol inst ~x_dealer:5
                 program)))
      cases
  in
  (* messages and bits per run sit beside the time: both are
     deterministic, so one observed execution per row gives them *)
  let traffic (name, runner, protocol) =
    let runner : Campaign.runner = runner () in
    let fields = ref [] in
    let observed =
      {
        Campaign.run =
          (fun ?max_messages ?size_of ?stop_when ?on_deliver ~graph
               ~adversary auto ->
            let o =
              runner.Campaign.run ?max_messages ?size_of ?stop_when
                ?on_deliver ~graph ~adversary auto
            in
            let s = o.Rmt_net.Engine.stats in
            Printf.printf "  %-18s %8d messages %9d bits per run\n" name
              s.Rmt_net.Engine.messages s.Rmt_net.Engine.bits;
            fields :=
              [
                ("messages_per_run", jint s.Rmt_net.Engine.messages);
                ("bits_per_run", jint s.Rmt_net.Engine.bits);
              ];
            o);
      }
    in
    ignore (Campaign.execute ~runner:observed protocol inst ~x_dealer:5 program);
    ("rmt/" ^ name, !fields)
  in
  let traffic_rows = List.map traffic cases in
  (* 5s quota, as for the cut deciders: at 2s the 70–220 µs cert rows fit
     at r² < 0.9 in most runs on a noisy host *)
  let rows = run_bechamel ~quota:5.0 tests in
  print_bechamel_rows rows;
  (* the solvability-frontier experiment: one in-envelope-to-beyond
     sweep of scheduler strengths, fanned over Parsweep *)
  let frontier_name, frontier_inst =
    match Codec.of_file boundary_instance_path with
    | Ok i -> ("boundary", i)
    | Error e ->
      Printf.printf "  (no frontier: %s: %s)\n" boundary_instance_path e;
      (name, inst)
  in
  let rows_f, secs =
    Timing.time_it (fun () ->
        Rmt_sim.Frontier.run ~domains:(sweep_domains ()) ~seed:19
          Campaign.Cert_pka frontier_inst Rmt_sim.Frontier.default_grid)
  in
  let schedules =
    match rows_f with r :: _ -> r.Rmt_sim.Frontier.schedules | [] -> 0
  in
  let total = schedules * List.length rows_f in
  let inside_viol, outside_viol =
    List.fold_left
      (fun (i, o) (r : Rmt_sim.Frontier.row) ->
        if r.Rmt_sim.Frontier.in_envelope then
          (i + r.Rmt_sim.Frontier.violated, o)
        else (i, o + r.Rmt_sim.Frontier.violated))
      (0, 0) rows_f
  in
  Printf.printf "  frontier (%d schedules/point, %.2fs, %.0f/s):\n%s" schedules
    secs
    (float_of_int total /. secs)
    (Rmt_sim.Frontier.to_table rows_f);
  List.concat_map
    (fun ((row_name, _, _) as r) ->
      timed_rows
        ~fields:(List.assoc row_name traffic_rows @ [ ("instance", jstr name) ])
        [ r ])
    rows
  @ {
      name = "frontier";
      fields =
        [
          ("instance", jstr frontier_name);
          ( "envelope",
            jstr
              (Rmt_protocols.Envelope.to_string Rmt_protocols.Envelope.default)
          );
          ("schedules_per_point", jint schedules); ("seconds", jnum 3 secs);
          ("inside_violations", jint inside_viol);
          ("outside_violations", jint outside_viol);
        ];
    }
    :: List.map
         (fun (r : Rmt_sim.Frontier.row) ->
           let { Rmt_sim.Frontier.delay_bound; drop_budget } = r.point in
           {
             name = Printf.sprintf "frontier/d%dl%d" delay_bound drop_budget;
             fields =
               [
                 ("delay", jint delay_bound); ("drops", jint drop_budget);
                 ("in_envelope", jbool r.in_envelope);
                 ("delivered", jint r.delivered);
                 ("silenced", jint r.silenced); ("violated", jint r.violated);
                 ("liveness_lost", jint r.liveness_lost);
               ];
           })
         rows_f

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* experiments that only print tables record no rows *)
let experiments =
  let table f () = f (); [] in
  [
    ("e1", table e1); ("e2", table e2); ("e2b", table e2b); ("e3", table e3);
    ("e4", table e4); ("e5", table e5); ("e6", table e6); ("e7", table e7);
    ("e8", table e8); ("e9", table e9); ("e10", table e10);
    ("e11", table e11); ("ablations", table ablations);
    ("bechamel", table bechamel); ("core", core); ("attack", attack);
    ("sim", sim); ("net", net); ("lint", lint); ("certified", certified);
  ]

let () =
  let json = ref false in
  let flags, names =
    match Array.to_list Sys.argv with
    | [] -> ([], [])
    | _ :: rest ->
      List.partition (fun a -> String.length a >= 2 && String.sub a 0 2 = "--") rest
  in
  List.iter
    (fun flag ->
      match flag with
      | "--json" -> json := true
      | _ when String.length flag > 10 && String.sub flag 0 10 = "--domains=" ->
        (match
           int_of_string_opt (String.sub flag 10 (String.length flag - 10))
         with
         | Some d when d >= 1 -> domains_override := Some d
         | _ ->
           Printf.eprintf "invalid %S (expected --domains=N, N >= 1)\n" flag;
           exit 1)
      | _ ->
        Printf.eprintf "unknown flag %S (known: --json, --domains=N)\n" flag;
        exit 1)
    flags;
  let names =
    match names with
    | [] | "all" :: _ -> List.map fst experiments
    | rest -> rest
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let rows, seconds = Timing.time_it f in
        Printf.printf "[%s finished in %.2fs]\n" name seconds;
        if !json && rows <> [] then write_record name rows
      | None ->
        Printf.eprintf "unknown experiment %S (known: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    names
