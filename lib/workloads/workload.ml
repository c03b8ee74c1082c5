open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

type labelled = {
  label : string;
  instance : Instance.t;
}

let named_topologies () =
  let rng = Prng.create 2016 in
  [
    ("grid-3x3", Generators.grid 3 3, 0, 8);
    ("grid-3x4", Generators.grid 3 4, 0, 11);
    ("layered-3x2", Generators.layered ~width:3 ~depth:2, 0, 7);
    ("layered-4x2", Generators.layered ~width:4 ~depth:2, 0, 9);
    ("ladder-5", Generators.ladder 5, 0, 9);
    ("cycle-8", Generators.cycle 8, 0, 4);
    ("complete-6", Generators.complete 6, 0, 5);
    ("regular-12", Generators.random_regular_ish rng 12 4, 0, 11);
    ( "communities",
      Generators.communities rng ~blocks:3 ~size:4 ~p_in:0.9 ~p_out:0.15,
      0,
      11 );
    ("hypercube-3", Generators.hypercube 3, 0, 7);
    ("binary-tree-3", Generators.binary_tree 3, 0, 14);
    ("barbell-4", Generators.barbell 4, 0, 7);
    ("king-3x4", Generators.king_grid 3 4, 0, 11);
  ]

type knowledge =
  | Ad_hoc
  | Radius of int
  | Full

let view_of k g =
  match k with
  | Ad_hoc -> View.ad_hoc g
  | Radius r -> View.radius r g
  | Full -> View.full g

let knowledge_label = function
  | Ad_hoc -> "ad-hoc"
  | Radius r -> Printf.sprintf "radius-%d" r
  | Full -> "full"

type adversary_kind =
  | Threshold of int
  | Random_antichain of {
      sets : int;
      max_size : int;
    }

let structure_of rng kind g ~dealer =
  match kind with
  | Threshold t -> Builders.global_threshold g ~dealer t
  | Random_antichain { sets; max_size } ->
    Builders.random_antichain rng g ~dealer ~sets ~max_size

let adversary_label = function
  | Threshold t -> Printf.sprintf "thr-%d" t
  | Random_antichain { sets; max_size } ->
    Printf.sprintf "rand-%dx%d" sets max_size

let make_instance rng g ~dealer ~receiver knowledge kind =
  Instance.make ~graph:g
    ~structure:(structure_of rng kind g ~dealer)
    ~view:(view_of knowledge g) ~dealer ~receiver

let pick_distant_receiver g dealer =
  let ds = Connectivity.distances_from g dealer in
  List.fold_left
    (fun (bv, bd) (v, d) -> if d > bd then (v, d) else (bv, bd))
    (dealer, 0) ds
  |> fst

let random_graph rng n =
  let p = 2.2 *. log (float_of_int n) /. float_of_int n in
  Generators.random_connected_gnp rng n (min 0.9 p)

let suite rng ~count ~n ~knowledge_menu =
  List.init count (fun i ->
      let g = random_graph rng n in
      let dealer = 0 in
      let receiver = pick_distant_receiver g dealer in
      let kinds =
        [
          Threshold 1;
          Threshold 2;
          Random_antichain { sets = 4; max_size = max 1 (n / 4) };
          Random_antichain { sets = 8; max_size = max 1 (n / 3) };
        ]
      in
      let kind = List.nth kinds (i mod List.length kinds) in
      let knowledge =
        List.nth knowledge_menu (i mod List.length knowledge_menu)
      in
      let instance = make_instance rng g ~dealer ~receiver knowledge kind in
      {
        label =
          Printf.sprintf "%s/%s" (adversary_label kind)
            (knowledge_label knowledge);
        instance;
      })

let tightness_suite rng ~count ~n =
  suite rng ~count ~n ~knowledge_menu:[ Ad_hoc; Radius 1; Radius 2; Full ]

let ad_hoc_suite rng ~count ~n = suite rng ~count ~n ~knowledge_menu:[ Ad_hoc ]

let scaling_family ~width ~max_depth =
  List.init max_depth (fun i ->
      let depth = i + 1 in
      let g = Generators.layered ~width ~depth in
      let receiver = 1 + (width * depth) in
      (* width-connected layers tolerate any ⌈width/2⌉−1 corruptions *)
      let t = max 1 (((width + 1) / 2) - 1) in
      let structure = Builders.global_threshold g ~dealer:0 t in
      ( Graph.num_nodes g,
        Instance.ad_hoc_of ~graph:g ~structure ~dealer:0 ~receiver ))
