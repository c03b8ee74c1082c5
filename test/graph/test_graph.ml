open Rmt_base
open Rmt_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list

(* random connected graph generator for properties *)
let arb_graph =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let n = 4 + QCheck.Gen.int_bound 6 st in
    Generators.random_connected_gnp rng n 0.45
  in
  QCheck.make ~print:Graph.to_string gen

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let test_empty_graph () =
  check_int "no nodes" 0 (Graph.num_nodes Graph.empty);
  check_int "no edges" 0 (Graph.num_edges Graph.empty);
  check "neighbors of absent" true
    (Nodeset.is_empty (Graph.neighbors 3 Graph.empty))

let test_add_edge () =
  let g = Graph.of_edges [ (0, 1); (1, 2) ] in
  check_int "nodes" 3 (Graph.num_nodes g);
  check_int "edges" 2 (Graph.num_edges g);
  check "edge symmetric" true (Graph.mem_edge 1 0 g && Graph.mem_edge 0 1 g);
  check "non-edge" false (Graph.mem_edge 0 2 g);
  check "idempotent" true (Graph.equal g (Graph.add_edge 0 1 g));
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge 2 2 g))

let test_remove_node () =
  let g = Graph.of_edges [ (0, 1); (1, 2); (0, 2) ] in
  let g' = Graph.remove_node 1 g in
  check_int "nodes" 2 (Graph.num_nodes g');
  check_int "edges" 1 (Graph.num_edges g');
  check "edge 0-2 kept" true (Graph.mem_edge 0 2 g');
  check "no stale adjacency" true (Nodeset.is_empty (Graph.neighbors 1 g'));
  check "absent removal is id" true (Graph.equal g (Graph.remove_node 9 g))

let test_isolated_nodes () =
  let g = Graph.of_nodes_edges (ns [ 0; 1; 2; 7 ]) [ (0, 1) ] in
  check_int "nodes incl isolated" 4 (Graph.num_nodes g);
  check_int "degree of isolated" 0 (Graph.degree 7 g)

let test_sparse_ids () =
  let g = Graph.of_edges [ (3, 500); (500, 1000) ] in
  check_int "nodes" 3 (Graph.num_nodes g);
  check "big id edge" true (Graph.mem_edge 500 1000 g)

let test_neighborhoods () =
  let g = Generators.grid 3 3 in
  (* center node 4 has 4 neighbors *)
  check_int "center degree" 4 (Graph.degree 4 g);
  check "closed nbhd" true
    (Nodeset.equal (ns [ 1; 3; 4; 5; 7 ]) (Graph.closed_neighborhood 4 g));
  check "N(S) excludes S" true
    (Nodeset.equal (ns [ 1; 3; 5; 7 ])
       (Graph.neighborhood_of_set (ns [ 4 ]) g));
  check "N of corner pair" true
    (Nodeset.equal (ns [ 1; 3 ]) (Graph.neighborhood_of_set (ns [ 0 ]) g))

let test_induced () =
  let g = Generators.complete 5 in
  let h = Graph.induced (ns [ 0; 1; 2 ]) g in
  check_int "induced nodes" 3 (Graph.num_nodes h);
  check_int "induced edges" 3 (Graph.num_edges h);
  check "subgraph" true (Graph.is_subgraph h g);
  check "ignores absent ids" true
    (Graph.equal h (Graph.induced (ns [ 0; 1; 2; 99 ]) g))

let test_union () =
  let a = Graph.of_edges [ (0, 1) ] and b = Graph.of_edges [ (1, 2) ] in
  let u = Graph.union a b in
  check_int "union nodes" 3 (Graph.num_nodes u);
  check_int "union edges" 2 (Graph.num_edges u);
  check "commutes" true (Graph.equal u (Graph.union b a))

(* A few graphs over a sparse id pool (ids up to 300, including ones past
   a word boundary of the bitsets), some with isolated nodes, and a subset
   of the pool to induce on. *)
let arb_graphs_and_subset =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let pool =
      Array.init (3 + Prng.int rng 8) (fun _ -> Prng.int rng 301)
    in
    let node () = Prng.pick rng pool in
    let graph () =
      let g = ref Graph.empty in
      for _ = 0 to Prng.int rng 8 do
        let a = node () and b = node () in
        g := if a <> b then Graph.add_edge a b !g else Graph.add_node a !g
      done;
      !g
    in
    let gs = List.init (Prng.int rng 5) (fun _ -> graph ()) in
    let s = Nodeset.filter (fun _ -> Prng.bool rng) (Nodeset.of_array pool) in
    (gs, s)
  in
  QCheck.make
    ~print:(fun (gs, s) ->
      Printf.sprintf "S=%s\n%s" (Nodeset.to_string s)
        (String.concat "\n" (List.map Graph.to_string gs)))
    gen

let qcheck_one_pass_union =
  QCheck.Test.make ~count:300
    ~name:"union_all / induced_union = folded union / its induced subgraph"
    arb_graphs_and_subset (fun (gs, s) ->
      let folded = List.fold_left Graph.union Graph.empty gs in
      Graph.equal (Graph.union_all gs) folded
      && Graph.equal (Graph.induced_union s gs) (Graph.induced s folded))

(* remove_edges = rebuilding from the node set and the edges not listed.
   Half the lists are one edge, as Delta's Remove_edge passes; entries are
   present edges in either orientation or arbitrary pairs (absent, a
   self-pair or off the graph).  gnp graphs have leaves and isolated
   nodes, so a removal can isolate an endpoint, which must stay. *)
let qcheck_remove_edges =
  QCheck.Test.make ~count:300 ~name:"remove_edges = rebuild without the edges"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let g = Generators.random_gnp rng (2 + Prng.int rng 10) 0.3 in
      let n = Graph.num_nodes g in
      let pair () =
        match Graph.edges g with
        | _ :: _ as es when Prng.int rng 4 > 0 ->
          let a, b = Prng.pick_list rng es in
          if Prng.bool rng then (a, b) else (b, a)
        | _ -> (Prng.int rng (n + 2), Prng.int rng (n + 2))
      in
      let es =
        List.init (if Prng.bool rng then 1 else Prng.int rng 8) (fun _ ->
            pair ())
      in
      let listed (a, b) =
        List.exists (fun (u, v) -> (u = a && v = b) || (u = b && v = a)) es
      in
      let g' = Graph.remove_edges es g in
      Graph.equal g'
        (Graph.of_nodes_edges (Graph.nodes g)
           (List.filter (fun e -> not (listed e)) (Graph.edges g)))
      && Nodeset.equal (Graph.nodes g') (Graph.nodes g)
      && List.for_all (fun (u, v) -> not (Graph.mem_edge u v g')) es)

(* of_nodes_edges / of_edges = folding add_edge, then add_nodes: equal
   graphs, or the same Invalid_argument.  Ids are sparse (past a word of
   the bitsets), edges repeat in either orientation, and a few lists
   carry a self-loop or a negative id. *)
let qcheck_of_nodes_edges =
  QCheck.Test.make ~count:300
    ~name:"of_nodes_edges = add_edge fold, then add_nodes"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let pool = Array.init (2 + Prng.int rng 10) (fun _ -> Prng.int rng 200) in
      let edge () =
        match Prng.int rng 40 with
        | 0 -> let a = Prng.pick rng pool in (a, a)
        | 1 -> (Prng.pick rng pool, -1)
        | _ -> (Prng.pick rng pool, Prng.pick rng pool)
      in
      let es =
        List.filter
          (fun (a, b) -> a <> b || Prng.int rng 4 = 0)
          (List.init (Prng.int rng 16) (fun _ -> edge ()))
      in
      let ns = Prng.subset rng (Nodeset.of_array pool) 0.5 in
      let built f = try Ok (f ()) with Invalid_argument m -> Error m in
      let reference =
        built (fun () ->
            Graph.add_nodes ns
              (List.fold_left (fun g (a, b) -> Graph.add_edge a b g)
                 Graph.empty es))
      in
      let same r f =
        match (r, built f) with
        | Ok a, Ok b -> Graph.equal a b
        | Error m, Error m' -> String.equal m m'
        | _ -> false
      in
      same reference (fun () -> Graph.of_nodes_edges ns es)
      && same
           (built (fun () ->
                List.fold_left (fun g (a, b) -> Graph.add_edge a b g)
                  Graph.empty es))
           (fun () -> Graph.of_edges es))

let test_radius_restrict () =
  let g = Generators.path_graph 6 in
  let b0 = Graph.restrict_to_radius 2 0 g in
  check_int "radius 0 single node" 1 (Graph.num_nodes b0);
  let b1 = Graph.restrict_to_radius 2 1 g in
  check "radius 1 ball" true (Nodeset.equal (ns [ 1; 2; 3 ]) (Graph.nodes b1));
  check_int "radius 1 edges" 2 (Graph.num_edges b1);
  let ball = Graph.restrict_to_radius 0 2 g in
  check "radius 2 from end" true (Nodeset.equal (ns [ 0; 1; 2 ]) (Graph.nodes ball));
  (* radius-1 ball is induced: includes edges among neighbors *)
  let tri = Graph.of_edges [ (0, 1); (0, 2); (1, 2) ] in
  let b = Graph.restrict_to_radius 0 1 tri in
  check "triangle edge kept" true (Graph.mem_edge 1 2 b)

(* ------------------------------------------------------------------ *)
(* Connectivity                                                        *)
(* ------------------------------------------------------------------ *)

let test_reachability () =
  let g = Graph.of_edges [ (0, 1); (1, 2); (4, 5) ] in
  check "reach same comp" true
    (Nodeset.mem 2 (Connectivity.reachable_from g 0));
  check "no cross comp" false
    (Nodeset.mem 4 (Connectivity.reachable_from g 0));
  check "avoiding blocks" false
    (Nodeset.mem 2 (Connectivity.reachable_from ~avoiding:(ns [ 1 ]) g 0));
  check "disconnected" false (Connectivity.is_connected g);
  check "empty connected" true (Connectivity.is_connected Graph.empty)

let test_distances () =
  let g = Generators.grid 3 3 in
  let distance g s t = List.assoc_opt t (Connectivity.distances_from g s) in
  Alcotest.(check (option int)) "manhattan" (Some 4) (distance g 0 8);
  Alcotest.(check (option int)) "self" (Some 0) (distance g 4 4);
  Alcotest.(check (option int)) "diameter grid" (Some 4) (Connectivity.diameter g);
  Alcotest.(check (option int)) "diameter path" (Some 5)
    (Connectivity.diameter (Generators.path_graph 6));
  Alcotest.(check (option int)) "disconnected distance" None
    (distance (Graph.of_nodes_edges (ns [ 0; 1 ]) []) 0 1)

let test_is_cut () =
  let g = Generators.path_graph 5 in
  check "middle cuts" true (Connectivity.is_cut g 0 4 (ns [ 2 ]));
  check "endpoint in cut rejected" false (Connectivity.is_cut g 0 4 (ns [ 0 ]));
  check "non-cut" false (Connectivity.is_cut g 0 4 Nodeset.empty);
  let k = Generators.complete 4 in
  check "complete graph has no cut" false
    (Connectivity.is_cut k 0 3 (ns [ 1; 2 ]))

let test_min_vertex_cut () =
  check_int "path cut" 1 (Connectivity.min_vertex_cut (Generators.path_graph 5) 0 4);
  check_int "cycle cut" 2 (Connectivity.min_vertex_cut (Generators.cycle 6) 0 3);
  check_int "layered width 3" 3
    (Connectivity.min_vertex_cut (Generators.layered ~width:3 ~depth:2) 0 7);
  check_int "adjacent infinite" max_int
    (Connectivity.min_vertex_cut (Generators.complete 4) 0 1);
  check_int "grid corner to corner" 2
    (Connectivity.min_vertex_cut (Generators.grid 3 3) 0 8)

(* brute-force minimum vertex cut for cross-checking *)
let brute_min_cut g s t =
  if Graph.mem_edge s t g then max_int
  else begin
    let candidates = Nodeset.remove s (Nodeset.remove t (Graph.nodes g)) in
    let best = ref max_int in
    Nodeset.subsets_iter candidates (fun c ->
        if
          Nodeset.size c < !best
          && not (Connectivity.connected_avoiding g s t c)
        then best := Nodeset.size c);
    !best
  end

let qcheck_menger =
  QCheck.Test.make ~count:40 ~name:"min_vertex_cut matches brute force"
    arb_graph (fun g ->
      let nodes = Nodeset.elements (Graph.nodes g) in
      match nodes with
      | s :: rest ->
        let t = List.nth rest (List.length rest - 1) in
        Connectivity.min_vertex_cut g s t = brute_min_cut g s t
      | [] -> true)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

(* every simple s-t path, in DFS order: a predicate that accepts none
   makes [find_simple_path] enumerate them all *)
let all_simple_paths ?budget g s t =
  let seen = ref [] in
  let found, complete =
    Paths.find_simple_path ?budget g s t (fun p ->
        seen := p :: !seen;
        false)
  in
  check "nothing accepted" true (found = None);
  (List.rev !seen, complete)

let test_simple_paths_k4 () =
  let g = Generators.complete 4 in
  let ps, complete = all_simple_paths g 0 3 in
  check "complete" true complete;
  check_int "K4 has 5 simple 0-3 paths" 5 (List.length ps);
  check "all valid" true (List.for_all (Paths.is_path_in g) ps);
  check "all start at 0" true (List.for_all (fun p -> List.hd p = 0) ps)

let test_simple_paths_path_graph () =
  let g = Generators.path_graph 5 in
  let ps, _ = all_simple_paths g 0 4 in
  check_int "unique path" 1 (List.length ps);
  Alcotest.(check (list int)) "the path" [ 0; 1; 2; 3; 4 ] (List.hd ps)

let test_path_budget () =
  let g = Generators.complete 9 in
  let _, complete = all_simple_paths ~budget:50 g 0 8 in
  check "budget exhausted reported" false complete

let test_find_simple_path () =
  let g = Generators.cycle 6 in
  let p, complete = Paths.find_simple_path g 0 3 (fun p -> List.mem 4 p) in
  check "complete" true complete;
  (match p with
   | Some p -> check "goes through 4" true (List.mem 4 p)
   | None -> Alcotest.fail "expected a path via 4");
  let none, complete =
    Paths.find_simple_path g 0 3 (fun p -> List.length p > 10)
  in
  check "no long path" true (none = None && complete)

let test_is_path_in () =
  let g = Generators.path_graph 4 in
  check "valid" true (Paths.is_path_in g [ 0; 1; 2 ]);
  check "broken" false (Paths.is_path_in g [ 0; 2 ]);
  check "repeats" false (Paths.is_path_in g [ 0; 1; 0 ]);
  check "singleton" true (Paths.is_path_in g [ 3 ])

let test_shortest_path () =
  let g = Generators.grid 3 3 in
  match Paths.shortest_path g 0 8 with
  | Some p ->
    check_int "length 5 nodes" 5 (List.length p);
    check "valid" true (Paths.is_path_in g p)
  | None -> Alcotest.fail "expected path"

(* ------------------------------------------------------------------ *)
(* Subset_enum                                                         *)
(* ------------------------------------------------------------------ *)

let count_connected g seed forbidden =
  let count = ref 0 in
  let outcome =
    Subset_enum.connected_supersets g ~seed ~forbidden (fun _ _ ->
        incr count;
        false)
  in
  (!count, outcome)

let test_subset_enum_path () =
  (* on a path, connected sets containing node 0 are prefixes: n of them *)
  let g = Generators.path_graph 5 in
  let count, outcome = count_connected g 0 Nodeset.empty in
  check_int "prefixes" 5 count;
  check "complete" true outcome.complete;
  check_int "visited equals count" 5 outcome.visited

let test_subset_enum_cycle () =
  (* connected subsets of C_n containing a fixed node: arcs through it:
     1 (singleton) + arcs of length 2..n-1 containing node + full = for
     C_5: 1 + (len 2: 2) + (len 3: 3) + (len 4: 4) + 1 = 11 *)
  let g = Generators.cycle 5 in
  let count, _ = count_connected g 0 Nodeset.empty in
  check_int "arcs" 11 count

let test_subset_enum_unique () =
  let g = Generators.grid 2 3 in
  let seen = Hashtbl.create 64 in
  let dup = ref false in
  ignore
    (Subset_enum.connected_supersets g ~seed:0 ~forbidden:Nodeset.empty
       (fun b _ ->
         let key = Nodeset.to_string b in
         if Hashtbl.mem seen key then dup := true;
         Hashtbl.replace seen key ();
         false));
  check "no duplicates" false !dup;
  (* every enumerated set is connected and contains the seed *)
  Hashtbl.iter
    (fun _ () -> ())
    seen

let test_subset_enum_forbidden () =
  let g = Generators.path_graph 5 in
  let count, _ = count_connected g 0 (ns [ 2 ]) in
  check_int "blocked at 2" 2 count;
  let count2, outcome2 = count_connected g 2 (ns [ 2 ]) in
  check_int "forbidden seed" 0 count2;
  check "complete trivially" true outcome2.complete

let test_subset_enum_budget () =
  let g = Generators.complete 12 in
  let outcome =
    Subset_enum.connected_supersets ~budget:100 g ~seed:0
      ~forbidden:Nodeset.empty (fun _ _ -> false)
  in
  check "budget exhaustion flagged" false outcome.complete

let test_subset_enum_early_stop () =
  let g = Generators.complete 12 in
  let outcome =
    Subset_enum.connected_supersets g ~seed:0 ~forbidden:Nodeset.empty
      (fun b _ -> Nodeset.size b = 3)
  in
  check "stop is complete" true outcome.complete;
  check "visited small" true (outcome.visited < 100)

let test_subset_enum_acc () =
  (* accumulator tracks the set itself: must agree with the argument *)
  let g = Generators.grid 2 3 in
  let ok = ref true in
  ignore
    (Subset_enum.connected_supersets_acc g ~seed:0 ~forbidden:Nodeset.empty
       ~init:(Nodeset.singleton 0)
       ~extend:(fun acc c -> Nodeset.add c acc)
       (fun b _ acc ->
         if not (Nodeset.equal b acc) then ok := false;
         false));
  check "acc tracks set" true !ok

let test_subset_enum_acc_same_count () =
  let g = Generators.cycle 6 in
  let plain = ref 0 and accd = ref 0 in
  ignore
    (Subset_enum.connected_supersets g ~seed:2 ~forbidden:(ns [ 5 ])
       (fun _ _ -> incr plain; false));
  ignore
    (Subset_enum.connected_supersets_acc g ~seed:2 ~forbidden:(ns [ 5 ])
       ~init:() ~extend:(fun () _ -> ())
       (fun _ _ () -> incr accd; false));
  check_int "same enumeration" !plain !accd

(* The boundary handed to the callback is N(B), kept incrementally by the
   enumeration; check it against the from-scratch fold on graphs with
   isolated nodes, random seeds (possibly forbidden) and forbidden sets. *)
let qcheck_subset_enum_boundary =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let n = 1 + Prng.int rng 11 in
    let g = Generators.random_gnp rng n (0.15 +. Prng.float rng 0.5) in
    let forbidden = Prng.subset rng (Graph.nodes g) 0.25 in
    (g, Prng.int rng n, forbidden)
  in
  QCheck.Test.make ~count:200
    ~name:"callback boundary = neighborhood_of_set for every enumerated B"
    (QCheck.make
       ~print:(fun (g, seed, forbidden) ->
         Printf.sprintf "seed=%d forbidden=%s\n%s" seed
           (Nodeset.to_string forbidden) (Graph.to_string g))
       gen)
    (fun (g, seed, forbidden) ->
      let ok = ref true in
      ignore
        (Subset_enum.connected_supersets g ~seed ~forbidden (fun b nb ->
             if not (Nodeset.equal nb (Graph.neighborhood_of_set b g)) then
               ok := false;
             false));
      !ok)

(* The pinned prune is exact: the pinned enumeration emits exactly the B
   of the unpinned one with N(B) ∩ pinned = ∅, each once.  Pinned sets
   are drawn to overlap the forbidden set and the seed's neighbourhood,
   where the prune forces a step or abandons a branch. *)
let qcheck_subset_enum_pinned =
  let gen st =
    let rng = Prng.create (QCheck.Gen.int_bound 1_000_000 st) in
    let n = 1 + Prng.int rng 11 in
    let g = Generators.random_gnp rng n (0.15 +. Prng.float rng 0.5) in
    let seed = Prng.int rng n in
    let forbidden = Prng.subset rng (Graph.nodes g) 0.25 in
    let pinned =
      Nodeset.union
        (Prng.subset rng (Graph.nodes g) 0.2)
        (Nodeset.union
           (Prng.subset rng forbidden 0.5)
           (Prng.subset rng (Graph.neighbors seed g) 0.5))
    in
    (g, seed, forbidden, pinned)
  in
  let emitted ?pinned g ~seed ~forbidden =
    let out = ref [] in
    ignore
      (Subset_enum.connected_supersets_acc ?pinned g ~seed ~forbidden ~init:()
         ~extend:(fun () _ -> ())
         (fun b nb () ->
           out := (b, nb) :: !out;
           false));
    List.sort (fun (a, _) (b, _) -> Nodeset.compare a b) !out
  in
  QCheck.Test.make ~count:300
    ~name:"pinned enumeration = unpinned one filtered by N(B) ∩ pinned = ∅"
    (QCheck.make
       ~print:(fun (g, seed, forbidden, pinned) ->
         Printf.sprintf "seed=%d forbidden=%s pinned=%s\n%s" seed
           (Nodeset.to_string forbidden) (Nodeset.to_string pinned)
           (Graph.to_string g))
       gen)
    (fun (g, seed, forbidden, pinned) ->
      let expected =
        List.filter
          (fun (_, nb) -> Nodeset.disjoint nb pinned)
          (emitted g ~seed ~forbidden)
      in
      let got = emitted ~pinned g ~seed ~forbidden in
      List.equal
        (fun (b, nb) (b', nb') -> Nodeset.equal b b' && Nodeset.equal nb nb')
        expected got)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_shapes () =
  check_int "path edges" 4 (Graph.num_edges (Generators.path_graph 5));
  check_int "cycle edges" 6 (Graph.num_edges (Generators.cycle 6));
  check_int "complete edges" 10 (Graph.num_edges (Generators.complete 5));
  check_int "star edges" 4 (Graph.num_edges (Generators.star 5));
  check_int "grid nodes" 12 (Graph.num_nodes (Generators.grid 3 4));
  check_int "grid edges" 17 (Graph.num_edges (Generators.grid 3 4));
  check_int "ladder nodes" 8 (Graph.num_nodes (Generators.ladder 4));
  check_int "ladder edges" 10 (Graph.num_edges (Generators.ladder 4))

let test_layered_shape () =
  let g = Generators.layered ~width:3 ~depth:2 in
  check_int "nodes" 8 (Graph.num_nodes g);
  (* 3 + 9 + 3 edges *)
  check_int "edges" 15 (Graph.num_edges g);
  check "connected" true (Connectivity.is_connected g);
  check_int "dealer degree" 3 (Graph.degree 0 g);
  check_int "receiver degree" 3 (Graph.degree 7 g)

let test_basic_instance_graph () =
  let g = Generators.basic_instance_graph 4 in
  check_int "nodes" 6 (Graph.num_nodes g);
  check_int "edges" 8 (Graph.num_edges g);
  check "no dealer-receiver edge" false (Graph.mem_edge 0 5 g);
  check "middle wired" true (Graph.mem_edge 0 2 g && Graph.mem_edge 2 5 g)

let test_new_topologies () =
  let h = Generators.hypercube 3 in
  check_int "Q3 nodes" 8 (Graph.num_nodes h);
  check_int "Q3 edges" 12 (Graph.num_edges h);
  check_int "Q3 degree" 3 (Graph.degree 5 h);
  check_int "Q3 connectivity" 3 (Connectivity.min_vertex_cut h 0 7);
  let t = Generators.binary_tree 3 in
  check_int "tree nodes" 15 (Graph.num_nodes t);
  check_int "tree edges" 14 (Graph.num_edges t);
  check "tree connected" true (Connectivity.is_connected t);
  check_int "leaf degree" 1 (Graph.degree 14 t);
  let b = Generators.barbell 4 in
  check_int "barbell nodes" 8 (Graph.num_nodes b);
  check_int "barbell edges" 13 (Graph.num_edges b);
  check "bridge" true (Graph.mem_edge 3 4 b);
  check_int "bridge is the min cut" 1 (Connectivity.min_vertex_cut b 0 7);
  let k = Generators.king_grid 3 3 in
  check_int "king nodes" 9 (Graph.num_nodes k);
  check_int "king edges" 20 (Graph.num_edges k);
  check_int "king center degree" 8 (Graph.degree 4 k)

let test_random_generators () =
  let rng = Prng.create 123 in
  let g = Generators.random_connected_gnp rng 12 0.3 in
  check "connected" true (Connectivity.is_connected g);
  check_int "n" 12 (Graph.num_nodes g);
  let r = Generators.random_regular_ish rng 10 3 in
  check_int "rr nodes" 10 (Graph.num_nodes r);
  let c = Generators.communities rng ~blocks:2 ~size:5 ~p_in:1.0 ~p_out:0.0 in
  check "blocks disconnected" true
    (Nodeset.equal (Nodeset.range 0 5) (Connectivity.reachable_from c 0))

let test_generator_determinism () =
  let g1 = Generators.random_gnp (Prng.create 7) 10 0.4 in
  let g2 = Generators.random_gnp (Prng.create 7) 10 0.4 in
  check "same seed same graph" true (Graph.equal g1 g2)

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_dot () =
  let g = Generators.path_graph 3 in
  let s = Dot.to_dot g in
  check "edge line" true (contains ~needle:"0 -- 1;" s);
  let s2 = Dot.instance_dot ~dealer:0 ~receiver:2 ~corrupted:(ns [ 1 ]) g in
  check "dealer colored" true (contains ~needle:"palegreen" s2);
  check "corrupted colored" true (contains ~needle:"salmon" s2)

let () =
  Alcotest.run "rmt_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty_graph;
          Alcotest.test_case "add edge" `Quick test_add_edge;
          Alcotest.test_case "remove node" `Quick test_remove_node;
          Alcotest.test_case "isolated nodes" `Quick test_isolated_nodes;
          Alcotest.test_case "sparse ids" `Quick test_sparse_ids;
          Alcotest.test_case "neighborhoods" `Quick test_neighborhoods;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "union" `Quick test_union;
          QCheck_alcotest.to_alcotest qcheck_one_pass_union;
          QCheck_alcotest.to_alcotest qcheck_remove_edges;
          QCheck_alcotest.to_alcotest qcheck_of_nodes_edges;
          Alcotest.test_case "radius restrict" `Quick test_radius_restrict;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "distances" `Quick test_distances;
          Alcotest.test_case "is_cut" `Quick test_is_cut;
          Alcotest.test_case "min vertex cut" `Quick test_min_vertex_cut;
          QCheck_alcotest.to_alcotest qcheck_menger;
        ] );
      ( "paths",
        [
          Alcotest.test_case "K4 paths" `Quick test_simple_paths_k4;
          Alcotest.test_case "path graph" `Quick test_simple_paths_path_graph;
          Alcotest.test_case "budget" `Quick test_path_budget;
          Alcotest.test_case "find with predicate" `Quick test_find_simple_path;
          Alcotest.test_case "is_path_in" `Quick test_is_path_in;
          Alcotest.test_case "shortest" `Quick test_shortest_path;
        ] );
      ( "subset-enum",
        [
          Alcotest.test_case "path prefixes" `Quick test_subset_enum_path;
          Alcotest.test_case "cycle arcs" `Quick test_subset_enum_cycle;
          Alcotest.test_case "no duplicates" `Quick test_subset_enum_unique;
          Alcotest.test_case "forbidden" `Quick test_subset_enum_forbidden;
          Alcotest.test_case "budget" `Quick test_subset_enum_budget;
          Alcotest.test_case "early stop" `Quick test_subset_enum_early_stop;
          Alcotest.test_case "accumulator" `Quick test_subset_enum_acc;
          Alcotest.test_case "acc same count" `Quick test_subset_enum_acc_same_count;
          QCheck_alcotest.to_alcotest qcheck_subset_enum_boundary;
          QCheck_alcotest.to_alcotest qcheck_subset_enum_pinned;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generator_shapes;
          Alcotest.test_case "layered" `Quick test_layered_shape;
          Alcotest.test_case "basic instance" `Quick test_basic_instance_graph;
          Alcotest.test_case "new topologies" `Quick test_new_topologies;
          Alcotest.test_case "random" `Quick test_random_generators;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
        ] );
      ("dot", [ Alcotest.test_case "render" `Quick test_dot ]);
    ]
