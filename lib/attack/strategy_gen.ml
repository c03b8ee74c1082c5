open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_net
open Rmt_core

(* Per-node PRNG stream: deterministic in (program seed, node id), and
   independent of how many other nodes the program corrupts — shrinking a
   program never perturbs the surviving nodes' streams. *)
let node_rng (p : Program.t) v = Prng.create ((p.seed * 1_000_003) + v)

let phantom_id g =
  match Nodeset.max_elt_opt (Graph.nodes g) with
  | Some m -> m + 1
  | None -> 0

let permissive_structure ground = Structure.of_sets ~ground [ ground ]

(* Shared compilation skeleton: base behavior over the mimicked honest
   automaton, plus per-round injected sends. *)
let compile_skeleton (p : Program.t) automaton ~inject =
  let corrupted = Program.corrupted p in
  let honest = Byzantine.mimic_honest corrupted automaton in
  let per_node =
    List.map
      (fun (np : Program.node_program) -> (np.node, (np, node_rng p np.node)))
      p.nodes
  in
  let act v ~round ~inbox =
    match List.assoc_opt v per_node with
    | None -> []
    | Some (np, rng) ->
      let base_sends =
        match np.base with
        | Program.Honest -> honest.Engine.act v ~round ~inbox
        | Program.Silent -> []
        | Program.Crash_after k ->
          (* keep consuming the mimic state so a later shrink to Honest
             does not change other nodes' streams *)
          let sends = honest.Engine.act v ~round ~inbox in
          if round > k then [] else sends
        | Program.Drop prob ->
          List.filter
            (fun _ -> Prng.float rng 1.0 >= prob)
            (honest.Engine.act v ~round ~inbox)
      in
      List.fold_left
        (fun sends i -> inject v rng ~round i sends)
        base_sends np.injects
  in
  Engine.{ corrupted; act }

(* ------------------------------------------------------------------ *)
(* RMT-PKA                                                             *)
(* ------------------------------------------------------------------ *)

let pka_map_value f (s : Rmt_pka.msg Engine.send) =
  Engine.
    {
      s with
      payload =
        {
          s.payload with
          Flood.payload =
            (match s.payload.Flood.payload with
             | Rmt_pka.Value x -> Rmt_pka.Value (f x)
             | Rmt_pka.Info r -> Rmt_pka.Info r);
        };
    }

(* mostly real ids, sometimes a phantom *)
let random_node rng g =
  if Prng.int rng 5 = 0 then Graph.num_nodes g + Prng.int rng 3
  else Prng.pick rng (Nodeset.to_array (Graph.nodes g))

(* Structurally random garbage: random values, random (possibly phantom)
   trails, random forged reports with random claimed graphs and
   structures. *)
let pka_spam_payload rng g =
  let random_node () = random_node rng g in
  if Prng.bool rng then Rmt_pka.Value (Prng.int rng 100)
  else begin
    let gamma = ref Graph.empty in
    for _ = 1 to 1 + Prng.int rng 5 do
      let a = random_node () and b = random_node () in
      if a <> b then gamma := Graph.add_edge a b !gamma
      else gamma := Graph.add_node a !gamma
    done;
    let origin =
      match Nodeset.choose_opt (Graph.nodes !gamma) with
      | Some v -> v
      | None -> random_node ()
    in
    let gamma = Graph.add_node origin !gamma in
    let ground = Graph.nodes gamma in
    let zeta =
      if Prng.bool rng then Structure.trivial ~ground
      else Structure.of_sets ~ground [ Prng.subset rng ground 0.5 ]
    in
    Rmt_pka.Info (Rmt_pka.report ~origin ~gamma ~zeta)
  end

let pka_random_trail rng g v =
  List.init (1 + Prng.int rng 4) (fun _ -> random_node rng g) @ [ v ]

let pka_inject (inst : Instance.t) =
  let g = inst.graph in
  let inject v rng ~round i sends =
    match i with
    | Program.Flip_value x ->
      List.map (pka_map_value (fun _ -> x)) sends
    | Program.Forge_trail x ->
      if round = 1 then
        sends
        @ Flood.broadcast g v
            Flood.{ payload = Rmt_pka.Value x; trail = [ inst.dealer; v ] }
      else sends
    | Program.Lie_topology ->
      if round = 1 then begin
        let fake_gamma =
          Graph.add_edge v inst.dealer (Instance.local_view inst v)
        in
        let ground = Nodeset.remove inst.dealer (Graph.nodes fake_gamma) in
        let report =
          Rmt_pka.report ~origin:v ~gamma:fake_gamma
            ~zeta:(permissive_structure ground)
        in
        sends
        @ Flood.broadcast g v
            Flood.{ payload = Rmt_pka.Info report; trail = [ v ] }
      end
      else sends
    | Program.Phantom x ->
      if round = 1 then begin
        let phantom = phantom_id g in
        let phantom_gamma =
          Graph.add_edge phantom v
            (Graph.add_edge phantom inst.dealer Graph.empty)
        in
        let phantom_report =
          Rmt_pka.report ~origin:phantom ~gamma:phantom_gamma
            ~zeta:(Structure.trivial ~ground:Nodeset.empty)
        in
        sends
        @ Flood.broadcast g v
            Flood.{ payload = Rmt_pka.Info phantom_report; trail = [ phantom; v ] }
        @ Flood.broadcast g v
            Flood.
              { payload = Rmt_pka.Value x; trail = [ inst.dealer; phantom; v ] }
      end
      else sends
    | Program.Forge_edges x ->
      if round = 1 then begin
        let nbrs = Graph.neighbors v g in
        let fake_gamma =
          Nodeset.fold
            (fun u acc ->
              let acc =
                if u <> inst.dealer then Graph.add_edge inst.dealer u acc
                else acc
              in
              Nodeset.fold
                (fun w acc -> if u < w then Graph.add_edge u w acc else acc)
                nbrs acc)
            nbrs
            (Instance.local_view inst v)
        in
        let ground = Nodeset.remove inst.dealer (Graph.nodes fake_gamma) in
        let report =
          Rmt_pka.report ~origin:v ~gamma:fake_gamma
            ~zeta:(permissive_structure ground)
        in
        sends
        @ Flood.broadcast g v
            Flood.{ payload = Rmt_pka.Info report; trail = [ v ] }
        @ Nodeset.fold
            (fun u acc ->
              Flood.broadcast g v
                Flood.
                  { payload = Rmt_pka.Value x; trail = [ inst.dealer; u; v ] }
              @ acc)
            nbrs []
      end
      else sends
    | Program.Spam { spam_seed; rounds } ->
      if round <= rounds then begin
        let srng = Prng.create (spam_seed + (v * 7919) + round) in
        ignore rng;
        let burst = 1 + Prng.int srng 3 in
        sends
        @ List.concat
            (List.init burst (fun _ ->
                 Flood.broadcast g v
                   Flood.
                     {
                       payload = pka_spam_payload srng g;
                       trail = pka_random_trail srng g v;
                     }))
      end
      else sends
  in
  inject

let compile_pka (p : Program.t) (inst : Instance.t) ~x_dealer =
  compile_skeleton p (Rmt_pka.automaton inst ~x_dealer) ~inject:(pka_inject inst)

(* ------------------------------------------------------------------ *)
(* PPA                                                                 *)
(* ------------------------------------------------------------------ *)

let ppa_map_value f (s : Rmt_protocols.Ppa.msg Engine.send) =
  Engine.
    { s with payload = { s.payload with Flood.payload = f s.payload.Flood.payload } }

let ppa_inject (inst : Instance.t) =
  let g = inst.graph in
  let inject v rng ~round i sends =
    match i with
    | Program.Flip_value x -> List.map (ppa_map_value (fun _ -> x)) sends
    | Program.Forge_trail x ->
      if round = 1 then
        sends
        @ Flood.broadcast g v Flood.{ payload = x; trail = [ inst.dealer; v ] }
      else sends
    | Program.Lie_topology -> sends (* no knowledge channel in PPA *)
    | Program.Phantom x ->
      if round = 1 then
        sends
        @ Flood.broadcast g v
            Flood.{ payload = x; trail = [ inst.dealer; phantom_id g; v ] }
      else sends
    | Program.Forge_edges x ->
      if round = 1 then
        sends
        @ Nodeset.fold
            (fun u acc ->
              Flood.broadcast g v
                Flood.{ payload = x; trail = [ inst.dealer; u; v ] }
              @ acc)
            (Graph.neighbors v g) []
      else sends
    | Program.Spam { spam_seed; rounds } ->
      if round <= rounds then begin
        let srng = Prng.create (spam_seed + (v * 7919) + round) in
        ignore rng;
        let burst = 1 + Prng.int srng 3 in
        sends
        @ List.concat
            (List.init burst (fun _ ->
                 Flood.broadcast g v
                   Flood.
                     {
                       payload = Prng.int srng 100;
                       trail = pka_random_trail srng g v;
                     }))
      end
      else sends
  in
  inject

let compile_ppa (p : Program.t) (inst : Instance.t) ~x_dealer =
  compile_skeleton p
    (Rmt_protocols.Ppa.automaton inst.graph ~structure:inst.structure
       ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer)
    ~inject:(ppa_inject inst)

(* ------------------------------------------------------------------ *)
(* Z-CPA                                                               *)
(* ------------------------------------------------------------------ *)

(* Bare-value injections, shared by every protocol whose messages are
   plain ints (Z-CPA and the strawman): trail/report forgeries degrade
   to pushing the fake value. *)
let int_inject g =
  let push v x sends = sends @ Flood.broadcast g v x in
  fun v rng ~round i sends ->
    match i with
    | Program.Flip_value x ->
      (* rewrite relays and push the fake once: the strongest simple lie *)
      let sends = List.map (fun s -> Engine.{ s with payload = x }) sends in
      if round = 1 then push v x sends else sends
    | Program.Forge_trail x | Program.Phantom x | Program.Forge_edges x ->
      if round = 1 then push v x sends else sends
    | Program.Lie_topology -> sends
    | Program.Spam { spam_seed; rounds } ->
      if round <= rounds then begin
        let srng = Prng.create (spam_seed + (v * 7919) + round) in
        ignore rng;
        push v (Prng.int srng 100) sends
      end
      else sends

let compile_zcpa (p : Program.t) (inst : Instance.t) ~x_dealer =
  compile_skeleton p
    (Zcpa.automaton
       ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
       inst ~x_dealer)
    ~inject:(int_inject inst.graph)

let compile_strawman (p : Program.t) (inst : Instance.t) ~x_dealer =
  compile_skeleton p
    (Rmt_protocols.Naive.first_delivery inst.graph ~dealer:inst.dealer
       ~receiver:inst.receiver ~x_dealer)
    ~inject:(int_inject inst.graph)

(* ------------------------------------------------------------------ *)
(* Certified wrappers                                                  *)
(* ------------------------------------------------------------------ *)

(* Lifting an inner-protocol injection vocabulary through the certified
   wrapper: payload forgeries ride inside [Load] (reusing the inner
   protocol's inject compilation verbatim), and every round that forges
   payloads additionally floods forged [Echo] votes on behalf of the
   whole node set.  Corrupted nodes can always forge echoes — the
   quorum certificate targets the message adversary, not them — and
   outside the envelope (where drops silence honest evidence) this is
   what carries a campaign past the quorum gate, keeping the boundary
   lanes non-vacuous.  [Tick]s pass through untouched. *)

let cert_map_load flip (s : 'p Rmt_protocols.Certified.msg Engine.send) =
  Engine.
    {
      s with
      payload =
        {
          s.payload with
          Flood.payload =
            (match s.payload.Flood.payload with
             | Rmt_protocols.Certified.Load p ->
               Rmt_protocols.Certified.Load (flip p)
             | (Rmt_protocols.Certified.Echo _ | Rmt_protocols.Certified.Tick)
               as b ->
               b);
        };
    }

let cert_echo_flood g v =
  Nodeset.fold
    (fun u acc ->
      let trail = if u = v then [ v ] else [ u; v ] in
      Flood.broadcast g v
        Flood.{ payload = Rmt_protocols.Certified.Echo u; trail }
      @ acc)
    (Graph.nodes g) []

let compile_cert g ~flip ~inner_inject ~automaton (p : Program.t) =
  let inject v rng ~round i sends =
    match i with
    | Program.Flip_value x -> List.map (cert_map_load (flip x)) sends
    | _ -> (
      let added = inner_inject v rng ~round i [] in
      match added with
      | [] -> sends
      | _ ->
        let wrapped =
          List.map
            (fun (s : _ Engine.send) ->
              Engine.
                {
                  dst = s.dst;
                  payload =
                    Flood.
                      {
                        payload =
                          Rmt_protocols.Certified.Load s.payload.Flood.payload;
                        trail = s.payload.Flood.trail;
                      };
                })
            added
        in
        sends @ wrapped @ cert_echo_flood g v)
  in
  compile_skeleton p automaton ~inject

let compile_cert_pka (p : Program.t) (inst : Instance.t) ~x_dealer =
  compile_cert inst.graph
    ~flip:(fun x pl ->
      match pl with
      | Rmt_pka.Value _ -> Rmt_pka.Value x
      | Rmt_pka.Info r -> Rmt_pka.Info r)
    ~inner_inject:(pka_inject inst)
    ~automaton:(Rmt_protocols.Certified.pka inst ~x_dealer)
    p

let compile_cert_ppa (p : Program.t) (inst : Instance.t) ~x_dealer =
  compile_cert inst.graph
    ~flip:(fun x _ -> x)
    ~inner_inject:(ppa_inject inst)
    ~automaton:
      (Rmt_protocols.Certified.ppa inst.graph ~structure:inst.structure
         ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer)
    p

(* ------------------------------------------------------------------ *)
(* The fixed menus                                                     *)
(* ------------------------------------------------------------------ *)

let menu_seed = 424242

let labelled corrupted entries =
  List.map
    (fun (label, base, injects) ->
      (label, Program.uniform ~seed:menu_seed corrupted base injects))
    entries

(* the random entries spam for |V| rounds *)
let spam g = Program.Spam { spam_seed = menu_seed; rounds = Graph.num_nodes g }

let pka_menu g ~x_fake corrupted =
  labelled corrupted
    Program.
      [
        ("silent", Silent, []);
        ("mimic", Honest, []);
        ("value-flip", Honest, [ Flip_value x_fake ]);
        ("trail-forge", Honest, [ Forge_trail x_fake ]);
        ("topology-liar", Honest, [ Lie_topology ]);
        ("fictitious-node", Honest, [ Phantom x_fake ]);
        ("edge-forger", Honest, [ Forge_edges x_fake ]);
        ("fuzz", Honest, [ spam g ]);
      ]

let value_menu g ~x_fake corrupted =
  labelled corrupted
    Program.
      [
        ("silent", Silent, []);
        ("value-flip", Silent, [ Forge_trail x_fake ]);
        ("value-spam", Silent, [ spam g ]);
      ]

(* ------------------------------------------------------------------ *)
(* Random program generation                                           *)
(* ------------------------------------------------------------------ *)

let random_base rng =
  match Prng.int rng 8 with
  | 0 -> Program.Silent
  | 1 -> Program.Crash_after (Prng.int rng 4)
  | 2 -> Program.Drop (0.25 +. Prng.float rng 0.5)
  | _ -> Program.Honest

let random_inject rng ~fake =
  match Prng.int rng 6 with
  | 0 -> Program.Flip_value (fake rng)
  | 1 -> Program.Forge_trail (fake rng)
  | 2 -> Program.Lie_topology
  | 3 -> Program.Phantom (fake rng)
  | 4 -> Program.Forge_edges (fake rng)
  | _ ->
    Program.Spam
      { spam_seed = Prng.int rng 1_000_000; rounds = 1 + Prng.int rng 4 }

let random rng (inst : Instance.t) ~x_dealer ~x_fake =
  let seed = Prng.int rng 1_073_741_823 in
  let candidates =
    List.filter_map
      (fun z ->
        let z = Nodeset.remove inst.receiver z in
        if Nodeset.is_empty z then None else Some z)
      (Instance.corruption_sets inst)
  in
  match candidates with
  | [] -> Program.make ~seed []
  | _ ->
    let z = Prng.pick_list rng candidates in
    (* usually the whole maximal set; sometimes a proper subset *)
    let corrupted =
      if Prng.int rng 3 = 0 then
        let sub = Prng.sample rng z (1 + Prng.int rng (Nodeset.size z)) in
        if Nodeset.is_empty sub then z else sub
      else z
    in
    let fake rng =
      match Prng.int rng 4 with
      | 0 -> x_dealer (* echoing the truth stresses the path accounting *)
      | 1 -> x_fake + 1
      | _ -> x_fake
    in
    let nodes =
      Nodeset.fold
        (fun v acc ->
          let base = random_base rng in
          let injects =
            List.init (Prng.int rng 3) (fun _ -> random_inject rng ~fake)
          in
          { Program.node = v; base; injects } :: acc)
        corrupted []
    in
    Program.make ~seed nodes
