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

(* What a corrupted node can inject against one protocol on one
   instance: the rewrite [Flip_value x] applies to every message the
   node sends, the sends a forging injection adds at node [v] ([] where
   the protocol has no channel for it), and one spam round's sends at
   [v], drawn from the given PRNG. *)
type 'm vocabulary = {
  relay : int -> 'm -> 'm;
  forge : int -> Program.inject -> 'm Engine.send list;
  spam : Prng.t -> int -> 'm Engine.send list;
}

(* One injection on top of node [v]'s sends of round [round]: forgeries
   go out once, in round 1; spam in each of its first [rounds] rounds,
   from a PRNG seeded by (spam seed, node, round). *)
let inject voc v ~round i sends =
  let forged sends = if round = 1 then sends @ voc.forge v i else sends in
  match i with
  | Program.Flip_value x ->
    forged
      (List.map
         (fun (s : _ Engine.send) -> { s with payload = voc.relay x s.payload })
         sends)
  | Program.Spam { spam_seed; rounds } ->
    if round <= rounds then
      sends @ voc.spam (Prng.create (spam_seed + (v * 7919) + round)) v
    else sends
  | Program.Forge_trail _ | Program.Lie_topology | Program.Phantom _
  | Program.Forge_edges _ ->
    forged sends

(* Base behavior over the mimicked honest automaton, plus the
   injections of every round. *)
let compile (p : Program.t) automaton voc =
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
        (fun sends i -> inject voc v ~round i sends)
        base_sends np.injects
  in
  Engine.{ corrupted; act }

(* ------------------------------------------------------------------ *)
(* Trail protocols: RMT-PKA and PPA                                    *)
(* ------------------------------------------------------------------ *)

(* A trail protocol's payloads: the forged value, [Flip_value]'s rewrite
   of a relayed payload, the report forger (PKA's knowledge channel,
   [None] in PPA) and the spam payload drawer. *)
type 'p payloads = {
  value : int -> 'p;
  flip : int -> 'p -> 'p;
  report : (origin:int -> gamma:Graph.t -> zeta:Structure.t -> 'p) option;
  garbage : Prng.t -> Graph.t -> 'p;
}

let on_payload f (m : _ Flood.msg) =
  { m with Flood.payload = f m.Flood.payload }

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

let pka_payloads =
  {
    value = (fun x -> Rmt_pka.Value x);
    flip =
      (fun x -> function
        | Rmt_pka.Value _ -> Rmt_pka.Value x
        | Rmt_pka.Info _ as p -> p);
    report =
      Some
        (fun ~origin ~gamma ~zeta ->
          Rmt_pka.Info (Rmt_pka.report ~origin ~gamma ~zeta));
    garbage = pka_spam_payload;
  }

let ppa_payloads =
  {
    value = Fun.id;
    flip = (fun x _ -> x);
    report = None;
    garbage = (fun rng _ -> Prng.int rng 100);
  }

let random_trail rng g v =
  List.init (1 + Prng.int rng 4) (fun _ -> random_node rng g) @ [ v ]

(* The one trail-injection compilation: type-1 value forgeries over
   forged, phantom or invented-edge trails, each report forgery sent
   before the values it vouches for. *)
let trail_forge pl (inst : Instance.t) v i =
  let g = inst.graph in
  let send payload trail = Flood.broadcast g v Flood.{ payload; trail } in
  let report ~origin ~gamma ~zeta trail =
    match pl.report with
    | Some forge -> send (forge ~origin ~gamma ~zeta) trail
    | None -> []
  in
  (* [v]'s own report claiming [gamma], under a permissive structure *)
  let own_report gamma =
    let ground = Nodeset.remove inst.dealer (Graph.nodes gamma) in
    report ~origin:v ~gamma ~zeta:(permissive_structure ground) [ v ]
  in
  match i with
  | Program.Forge_trail x -> send (pl.value x) [ inst.dealer; v ]
  | Program.Lie_topology ->
    own_report (Graph.add_edge v inst.dealer (Instance.local_view inst v))
  | Program.Phantom x ->
    let phantom = phantom_id g in
    report ~origin:phantom
      ~gamma:
        (Graph.add_edge phantom v
           (Graph.add_edge phantom inst.dealer Graph.empty))
      ~zeta:(Structure.trivial ~ground:Nodeset.empty)
      [ phantom; v ]
    @ send (pl.value x) [ inst.dealer; phantom; v ]
  | Program.Forge_edges x ->
    let nbrs = Graph.neighbors v g in
    own_report
      (Nodeset.fold
         (fun u acc ->
           let acc =
             if u <> inst.dealer then Graph.add_edge inst.dealer u acc
             else acc
           in
           Nodeset.fold
             (fun w acc -> if u < w then Graph.add_edge u w acc else acc)
             nbrs acc)
         nbrs
         (Instance.local_view inst v))
    @ Nodeset.fold
        (fun u acc -> send (pl.value x) [ inst.dealer; u; v ] @ acc)
        nbrs []
  | Program.Flip_value _ | Program.Spam _ -> []

(* one to three garbage messages, each drawing its trail, then its
   payload *)
let trail_spam pl g rng v =
  List.concat
    (List.init
       (1 + Prng.int rng 3)
       (fun _ ->
         let trail = random_trail rng g v in
         let payload = pl.garbage rng g in
         Flood.broadcast g v Flood.{ payload; trail }))

let trail pl (inst : Instance.t) =
  {
    relay = (fun x -> on_payload (pl.flip x));
    forge = trail_forge pl inst;
    spam = trail_spam pl inst.graph;
  }

let pka inst = trail pka_payloads inst
let ppa inst = trail ppa_payloads inst

(* ------------------------------------------------------------------ *)
(* Bare-value protocols: Z-CPA and the strawman                        *)
(* ------------------------------------------------------------------ *)

(* Bare-value injections, shared by every protocol whose messages are
   plain ints: trail/report forgeries degrade to pushing the fake value,
   and [Flip_value] both rewrites relays and pushes the fake once — the
   strongest simple lie. *)
let ints (inst : Instance.t) =
  let push v x = Flood.broadcast inst.graph v x in
  {
    relay = (fun x _ -> x);
    forge =
      (fun v -> function
        | Program.Flip_value x
        | Program.Forge_trail x
        | Program.Phantom x
        | Program.Forge_edges x ->
          push v x
        | Program.Lie_topology | Program.Spam _ -> []);
    spam = (fun rng v -> push v (Prng.int rng 100));
  }

(* ------------------------------------------------------------------ *)
(* Certified wrappers                                                  *)
(* ------------------------------------------------------------------ *)

(* Lifting an inner-protocol injection vocabulary through the certified
   wrapper: payload forgeries ride inside [Load] (the inner payload
   record's trail injections, verbatim, and its [Flip_value] rewrite),
   and every round that forges payloads additionally floods forged
   [Echo] votes on behalf of the whole node set.  Corrupted nodes can
   always forge echoes — the quorum certificate targets the message
   adversary, not them — and outside the envelope (where drops silence
   honest evidence) this is what carries a campaign past the quorum
   gate, keeping the boundary lanes non-vacuous.  [Tick]s pass through
   untouched. *)

module Certified = Rmt_protocols.Certified

let cert_echo_flood g v =
  Nodeset.fold
    (fun u acc ->
      let trail = if u = v then [ v ] else [ u; v ] in
      Flood.broadcast g v Flood.{ payload = Certified.Echo u; trail } @ acc)
    (Graph.nodes g) []

let cert pl (inst : Instance.t) =
  let inner = trail pl inst in
  let lift v = function
    | [] -> []
    | added ->
      List.map
        (fun (s : _ Engine.send) ->
          { s with payload = on_payload (fun p -> Certified.Load p) s.payload })
        added
      @ cert_echo_flood inst.graph v
  in
  {
    relay =
      (fun x ->
        on_payload (function
          | Certified.Load p -> Certified.Load (pl.flip x p)
          | (Certified.Echo _ | Certified.Tick) as b -> b));
    forge = (fun v i -> lift v (inner.forge v i));
    spam = (fun rng v -> lift v (inner.spam rng v));
  }

let cert_pka inst = cert pka_payloads inst
let cert_ppa inst = cert ppa_payloads inst

(* ------------------------------------------------------------------ *)
(* One protocol each                                                   *)
(* ------------------------------------------------------------------ *)

let compile_pka p inst ~x_dealer =
  compile p (Rmt_pka.automaton inst ~x_dealer) (pka inst)

let compile_ppa p (inst : Instance.t) ~x_dealer =
  compile p
    (Rmt_protocols.Ppa.automaton inst.graph ~structure:inst.structure
       ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer)
    (ppa inst)

let compile_zcpa p inst ~x_dealer =
  compile p
    (Zcpa.automaton
       ~decider:(Zcpa.decider_of_oracle (Zcpa.direct_oracle inst))
       inst ~x_dealer)
    (ints inst)

let compile_strawman p (inst : Instance.t) ~x_dealer =
  compile p
    (Rmt_protocols.Naive.first_delivery inst.graph ~dealer:inst.dealer
       ~receiver:inst.receiver ~x_dealer)
    (ints inst)

let compile_cert_pka p inst ~x_dealer =
  compile p (Certified.pka inst ~x_dealer) (cert_pka inst)

let compile_cert_ppa p (inst : Instance.t) ~x_dealer =
  compile p
    (Certified.ppa inst.graph ~structure:inst.structure
       ~dealer:inst.dealer ~receiver:inst.receiver ~x_dealer)
    (cert_ppa inst)

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
