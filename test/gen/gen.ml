(* Shared random-instance generators for the qcheck suites.

   Each generator keeps the exact sampling recipe of the suite it was
   extracted from (node counts, edge densities, structure mixes), so the
   distributions the properties were tuned against do not drift.  All
   randomness flows through Prng from a qcheck-drawn seed: shrinking a
   qcheck counterexample re-derives the same instance. *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

let print_instance i = Format.asprintf "%a" Instance.pp i

(* test/core/test_cut.ml: mixed structures and views, n in 5..8.  The
   structure is a global threshold from [thresholds] or a random
   antichain, drawn uniformly, then the view from [views]. *)
let mixed_instance ~thresholds ~views =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let n = 5 + Prng.int rng 4 in
    let g = Generators.random_connected_gnp rng n 0.45 in
    let dealer = 0 in
    let receiver = n - 1 in
    let structure =
      match List.nth_opt thresholds (Prng.int rng (List.length thresholds + 1)) with
      | Some t -> Builders.global_threshold g ~dealer t
      | None -> Builders.random_antichain rng g ~dealer ~sets:4 ~max_size:(n / 2)
    in
    let view = List.nth views (Prng.int rng (List.length views)) g in
    Instance.make ~graph:g ~structure ~view ~dealer ~receiver
  in
  QCheck.make ~print:print_instance gen

let arb_instance =
  mixed_instance ~thresholds:[ 1; 2 ]
    ~views:[ View.ad_hoc; View.radius 1; View.full ]

let arb_wide_instance =
  mixed_instance ~thresholds:[ 0; 1; 2 ]
    ~views:[ View.ad_hoc; View.radius 0; View.radius 1; View.full ]

(* test/core/test_cut.ml: ad hoc knowledge only, n in 5..8 *)
let arb_ad_hoc_instance =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let n = 5 + Prng.int rng 4 in
    let g = Generators.random_connected_gnp rng n 0.45 in
    let structure =
      if Prng.bool rng then Builders.global_threshold g ~dealer:0 1
      else Builders.random_antichain rng g ~dealer:0 ~sets:4 ~max_size:(n / 2)
    in
    Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1)
  in
  QCheck.make ~print:print_instance gen

(* test/core/test_protocols_core.ml: small ad hoc instances, n in 5..7 *)
let small_instance_of_rng rng =
  let n = 5 + Prng.int rng 3 in
  let g = Generators.random_connected_gnp rng n 0.5 in
  let structure =
    if Prng.bool rng then Builders.global_threshold g ~dealer:0 1
    else Builders.random_antichain rng g ~dealer:0 ~sets:3 ~max_size:2
  in
  Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver:(n - 1)

let arb_small_instance =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    small_instance_of_rng rng
  in
  QCheck.make ~print:print_instance gen

(* test/attack/test_attack.ml: a small instance plus a campaign seed *)
let arb_instance_and_seed =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let inst = small_instance_of_rng rng in
    (inst, Prng.int rng 1_000_000)
  in
  QCheck.make
    ~print:(fun (i, s) -> Format.asprintf "seed %d on@ %a" s Instance.pp i)
    gen

(* test/core/test_incremental.ml + bench service workload: a stream of
   valid instance deltas.  Built sequentially — each step samples delta
   kinds against the *current* instance and keeps the first one that
   [Delta.apply] accepts — so every prefix of the stream is replayable.
   May return fewer than [n] deltas if the instance paints itself into a
   corner (e.g. a custom view refusing all topology edits). *)
let delta_stream rng inst n =
  let open Rmt_core in
  let sample_delta (inst : Instance.t) =
    let g = inst.graph in
    let nodes = Graph.nodes g in
    match Prng.int rng 6 with
    | 0 ->
      let u = Prng.pick rng (Nodeset.to_array nodes) in
      let v = Prng.pick rng (Nodeset.to_array nodes) in
      Delta.Add_edge (u, v)
    | 1 -> (
      match Graph.edges g with
      | [] ->
        (* no edge to remove: an inapplicable sample, so [try_one] draws
           again *)
        Delta.Remove_edge (inst.dealer, inst.dealer)
      | edges ->
        let u, v = Prng.pick_list rng edges in
        Delta.Remove_edge (u, v))
    | 2 ->
      let fresh =
        match Nodeset.max_elt_opt nodes with Some m -> m + 1 | None -> 0
      in
      Delta.Add_node (fresh, Prng.sample rng nodes (1 + Prng.int rng 2))
    | 3 -> Delta.Remove_node (Prng.pick rng (Nodeset.to_array nodes))
    | 4 ->
      let ground = Nodeset.remove inst.dealer nodes in
      Delta.Add_set (Prng.sample rng ground (1 + Prng.int rng 3))
    | _ -> (
      match Structure.maximal_sets inst.structure with
      | [] -> Delta.Add_set Nodeset.empty (* retried as an applyable no-op *)
      | maximal -> Delta.Remove_set (Prng.pick_list rng maximal))
  in
  let rec step inst acc n =
    if n = 0 then List.rev acc
    else
      let rec try_one tries =
        if tries = 0 then None
        else
          let d = sample_delta inst in
          match Delta.apply inst d with
          | Ok inst' -> Some (d, inst')
          | Error _ -> try_one (tries - 1)
      in
      match try_one 8 with
      | None -> List.rev acc
      | Some (d, inst') -> step inst' (d :: acc) (n - 1)
  in
  step inst [] n

let print_instance_and_stream (i, ds) =
  Format.asprintf "@[<v>%a@,stream:@,%a@]" Instance.pp i
    (Format.pp_print_list Rmt_core.Delta.pp)
    ds

(* an arb_instance-style instance (custom-free views) paired with a
   short valid delta stream *)
let arb_instance_with_stream =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let n = 5 + Prng.int rng 4 in
    let g = Generators.random_connected_gnp rng n 0.45 in
    let dealer = 0 in
    let receiver = n - 1 in
    let structure =
      match Prng.int rng 3 with
      | 0 -> Builders.global_threshold g ~dealer 1
      | 1 -> Builders.global_threshold g ~dealer 2
      | _ -> Builders.random_antichain rng g ~dealer ~sets:4 ~max_size:(n / 2)
    in
    let view =
      match Prng.int rng 3 with
      | 0 -> View.ad_hoc g
      | 1 -> View.radius 1 g
      | _ -> View.full g
    in
    let inst = Instance.make ~graph:g ~structure ~view ~dealer ~receiver in
    (inst, delta_stream rng inst (3 + Prng.int rng 6))
  in
  QCheck.make ~print:print_instance_and_stream gen

(* test/lint/test_runtime_determinism.ml: a random connected instance
   with a small adversary structure over the middle nodes, resampled
   until PKA-solvable. *)
let random_solvable_instance seed =
  let rng = Prng.create seed in
  let n = 8 + Prng.int rng 4 in
  let g = Generators.random_connected_gnp rng n 0.5 in
  let dealer = 0 and receiver = n - 1 in
  let ground = Nodeset.remove dealer (Graph.nodes g) in
  let middle = Nodeset.remove receiver ground in
  let rec go tries =
    if tries = 0 then None
    else
      let sets = List.init 2 (fun _ -> Prng.sample rng middle 1) in
      let structure = Structure.of_sets ~ground sets in
      match
        Instance.make ~graph:g ~structure ~view:(View.radius 2 g) ~dealer
          ~receiver
      with
      | exception Invalid_argument _ -> go (tries - 1)
      | inst ->
        if
          Rmt_core.Solvability.is_solvable
            (Rmt_core.Solvability.partial_knowledge inst)
        then Some inst
        else go (tries - 1)
  in
  go 8
