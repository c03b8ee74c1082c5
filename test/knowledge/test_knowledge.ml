open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list

let triangle_plus =
  (* triangle 0-1-2 with a tail 2-3 *)
  Graph.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3) ]

(* ------------------------------------------------------------------ *)
(* View                                                                *)
(* ------------------------------------------------------------------ *)

let test_full_view () =
  let v = View.full triangle_plus in
  check "γ(v) = G" true (Graph.equal (View.view v 1) triangle_plus);
  check "joint = G" true
    (Graph.equal (View.joint v (ns [ 0; 3 ])) triangle_plus)

let test_ad_hoc_view () =
  let v = View.ad_hoc triangle_plus in
  let g1 = View.view v 1 in
  check "star nodes" true (Nodeset.equal (ns [ 0; 1; 2 ]) (Graph.nodes g1));
  check "star edges only" true (Graph.mem_edge 1 0 g1 && Graph.mem_edge 1 2 g1);
  (* crucially, the star does NOT include the 0-2 edge *)
  check "no neighbor-neighbor edge" false (Graph.mem_edge 0 2 g1);
  check_int "star edge count" 2 (Graph.num_edges g1)

let test_radius_views () =
  let v0 = View.radius 0 triangle_plus in
  check_int "radius 0 is bare node" 1 (Graph.num_nodes (View.view v0 1));
  let v1 = View.radius 1 triangle_plus in
  let g1 = View.view v1 1 in
  (* induced ball includes the 0-2 edge *)
  check "ball-1 has triangle edge" true (Graph.mem_edge 0 2 g1);
  let v2 = View.radius 2 triangle_plus in
  check "radius 2 covers tail from 1" true
    (Graph.mem_node 3 (View.view v2 1));
  check "radius diam = full" true
    (Graph.equal (View.view v2 0) triangle_plus)

let test_view_partial_order () =
  let ad_hoc = View.ad_hoc triangle_plus in
  let r1 = View.radius 1 triangle_plus in
  let full = View.full triangle_plus in
  check "ad hoc ≤ radius 1" true (View.leq ad_hoc r1);
  check "radius 1 ≤ full" true (View.leq r1 full);
  check "full ≰ ad hoc" false (View.leq full ad_hoc);
  check "reflexive" true (View.leq r1 r1)

let test_view_membership_invariant () =
  let v = View.ad_hoc triangle_plus in
  Nodeset.iter
    (fun u -> check "v ∈ γ(v)" true (Graph.mem_node u (View.view v u)))
    (Graph.nodes triangle_plus)

let test_of_assignment_validation () =
  Alcotest.check_raises "γ(v) must contain v"
    (Invalid_argument "View: v must belong to γ(v)") (fun () ->
      ignore
        (View.of_assignment triangle_plus (fun _ ->
             Graph.add_node 0 Graph.empty)));
  Alcotest.check_raises "γ(v) must be a subgraph"
    (Invalid_argument "View: γ(v) must be a subgraph of G") (fun () ->
      ignore
        (View.of_assignment triangle_plus (fun v ->
             Graph.add_edge v 99 (Graph.add_node v Graph.empty))))

let test_joint_views () =
  let v = View.ad_hoc triangle_plus in
  let j = View.joint v (ns [ 1; 3 ]) in
  (* star(1) ∪ star(3): nodes {0,1,2,3}, edges 1-0,1-2,3-2 *)
  check_int "joint nodes" 4 (Graph.num_nodes j);
  check_int "joint edges" 3 (Graph.num_edges j);
  check "joint nodes fn agrees" true
    (Nodeset.equal (View.joint_nodes v (ns [ 1; 3 ])) (Graph.nodes j))

let test_local_structure () =
  let z =
    Structure.of_sets ~ground:(ns [ 1; 2; 3 ]) [ ns [ 1; 3 ]; ns [ 2 ] ]
  in
  let v = View.ad_hoc triangle_plus in
  let z0 = View.local_structure v z 0 in
  (* γ(0) = {0,1,2}: {1,3} restricts to {1} *)
  check "restricted member" true (Structure.mem (ns [ 1 ]) z0);
  check "cross member gone" false (Structure.mem (ns [ 1; 3 ]) z0);
  check "ground" true
    (Nodeset.equal (ns [ 1; 2 ]) (Structure.ground z0))

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let mk_instance () =
  let structure = Structure.threshold ~ground:(ns [ 1; 2 ]) 1 in
  Instance.make ~graph:triangle_plus ~structure
    ~view:(View.ad_hoc triangle_plus) ~dealer:0 ~receiver:3

let test_instance_ok () =
  let inst = mk_instance () in
  check_int "nodes" 4 (Instance.num_nodes inst);
  check "admissible" true (Instance.admissible inst (ns [ 1 ]));
  check "inadmissible" false (Instance.admissible inst (ns [ 1; 2 ]))

let test_instance_validation () =
  let structure = Structure.threshold ~ground:(ns [ 1; 2 ]) 1 in
  let view = View.ad_hoc triangle_plus in
  Alcotest.check_raises "dealer=receiver"
    (Invalid_argument "Instance.make: dealer = receiver") (fun () ->
      ignore
        (Instance.make ~graph:triangle_plus ~structure ~view ~dealer:1
           ~receiver:1));
  Alcotest.check_raises "missing receiver"
    (Invalid_argument "Instance.make: receiver not in graph") (fun () ->
      ignore
        (Instance.make ~graph:triangle_plus ~structure ~view ~dealer:0
           ~receiver:9));
  let bad_structure = Structure.threshold ~ground:(ns [ 0; 1 ]) 1 in
  Alcotest.check_raises "dealer in structure"
    (Invalid_argument "Instance.make: the dealer must be outside the structure")
    (fun () ->
      ignore
        (Instance.make ~graph:triangle_plus ~structure:bad_structure ~view
           ~dealer:0 ~receiver:3))

let test_instance_local_access () =
  let inst = mk_instance () in
  let z2 = Instance.local_structure inst 2 in
  (* γ(2) covers {0,1,2,3}: both singletons visible *)
  check "sees both singletons" true
    (Structure.mem (ns [ 1 ]) z2 && Structure.mem (ns [ 2 ]) z2);
  let g3 = Instance.local_view inst 3 in
  check "receiver star" true
    (Nodeset.equal (ns [ 2; 3 ]) (Graph.nodes g3))

let test_with_structure_and_view () =
  let inst = mk_instance () in
  let z' = Structure.trivial ~ground:(ns [ 1; 2 ]) in
  let inst' = Instance.with_structure inst z' in
  check "swapped" false (Instance.admissible inst' (ns [ 1 ]));
  let inst'' = Instance.with_view inst (View.full triangle_plus) in
  check "full view" true
    (Graph.equal (Instance.local_view inst'' 3) triangle_plus)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let inst = mk_instance () in
  match Codec.to_string inst with
  | Error m -> Alcotest.fail m
  | Ok text ->
    (match Codec.of_string text with
     | Error m -> Alcotest.fail m
     | Ok inst' ->
       check "graph survives" true (Graph.equal inst.graph inst'.graph);
       check "structure survives" true
         (Structure.equal inst.structure inst'.structure);
       check_int "dealer" inst.dealer inst'.dealer;
       check_int "receiver" inst.receiver inst'.receiver;
       check "view survives" true
         (View.label inst.view = View.label inst'.view))

let test_codec_radius_roundtrip () =
  let structure = Structure.threshold ~ground:(ns [ 1; 2 ]) 1 in
  let inst =
    Instance.make ~graph:triangle_plus ~structure
      ~view:(View.radius 2 triangle_plus) ~dealer:0 ~receiver:3
  in
  match Result.bind (Codec.to_string inst) Codec.of_string with
  | Error m -> Alcotest.fail m
  | Ok inst' ->
    check "radius label" true (View.label inst'.view = "radius-2");
    check "views equal pointwise" true (View.leq inst.view inst'.view)

let test_codec_parse () =
  let text =
    "# demo\nnodes 5\nedges 0-1 1-2 2-3\ndealer 0\nreceiver 3\nview radius 1\nset 1\nset 2\n"
  in
  match Codec.of_string text with
  | Error m -> Alcotest.fail m
  | Ok inst ->
    check_int "isolated node kept" 5 (Instance.num_nodes inst);
    check "set parsed" true (Instance.admissible inst (ns [ 2 ]));
    check "union not admissible" false (Instance.admissible inst (ns [ 1; 2 ]))

let expect_error text fragment =
  match Codec.of_string text with
  | Ok _ -> Alcotest.fail ("expected parse error mentioning " ^ fragment)
  | Error m ->
    let contains =
      let nl = String.length fragment and hl = String.length m in
      let rec go i =
        i + nl <= hl && (String.sub m i nl = fragment || go (i + 1))
      in
      go 0
    in
    check ("error mentions " ^ fragment) true contains

let test_codec_errors () =
  expect_error "edges 0-1\nreceiver 1\n" "dealer";
  expect_error "edges 0-1\ndealer 0\n" "receiver";
  expect_error "frobnicate 1\n" "unknown keyword";
  expect_error "edges 0x1\ndealer 0\nreceiver 1\n" "edge";
  expect_error "edges 0-1\ndealer 0\nreceiver 1\nview warp\n" "view";
  (* dealer inside a corruption set gets clipped, not rejected *)
  match Codec.of_string "edges 0-1 1-2\ndealer 0\nreceiver 2\nset 0 1\n" with
  | Ok inst -> check "clipped dealer" true (Instance.admissible inst (ns [ 1 ]))
  | Error m -> Alcotest.fail m

(* Every id-carrying line refuses ids above [Codec.max_node_id], before
   anything sized by the id is allocated; the limit itself is accepted. *)
let test_codec_huge_ids () =
  let limit = Codec.max_node_id in
  let big = string_of_int (limit + 1) in
  List.iter
    (fun text -> expect_error text "exceeds the limit")
    [
      "edges 0-1 1-1000000000\ndealer 0\nreceiver 1\n";
      "nodes 0 1 " ^ big ^ "\nedges 0-1\ndealer 0\nreceiver 1\n";
      "edges 0-1\ndealer " ^ big ^ "\nreceiver 1\n";
      "edges 0-1\ndealer 0\nreceiver " ^ string_of_int max_int ^ "\n";
      "edges 0-1\ndealer 0\nreceiver 1\nground 1 " ^ big ^ "\n";
      "edges 0-1\ndealer 0\nreceiver 1\nset 1 99999999999\n";
    ];
  expect_error "edges 0-1\ndealer 0\nreceiver -1\n" "node id";
  match
    Codec.of_string
      (Printf.sprintf "edges 0-%d\ndealer 0\nreceiver %d\n" limit limit)
  with
  | Ok inst -> check_int "limit id accepted" 2 (Instance.num_nodes inst)
  | Error m -> Alcotest.fail m

let test_codec_custom_rejected () =
  let view = View.of_assignment triangle_plus (fun v -> View.view (View.ad_hoc triangle_plus) v) in
  let structure = Structure.threshold ~ground:(ns [ 1; 2 ]) 1 in
  let inst =
    Instance.make ~graph:triangle_plus ~structure ~view ~dealer:0 ~receiver:3
  in
  check "custom rejected" true (Result.is_error (Codec.to_string inst))

let test_codec_file_roundtrip () =
  let inst = mk_instance () in
  let path = Filename.temp_file "rmt_codec" ".rmt" in
  (match Codec.to_file path inst with
   | Error m -> Alcotest.fail m
   | Ok () ->
     (match Codec.of_file path with
      | Error m -> Alcotest.fail m
      | Ok inst' -> check "file roundtrip" true (Graph.equal inst.graph inst'.graph)));
  Sys.remove path

let test_codec_golden_fixture () =
  (* re-serializing a checked-in instance pins the canonical form: field
     order, node/edge ordering, ground elision of the dealer.  If this
     fails after an intentional format change, update the expected text
     here and regenerate the .sched/.rmt fixtures that embed it. *)
  match Codec.of_file "../../instances/figure1_basic.rmt" with
  | Error m -> Alcotest.fail m
  | Ok inst ->
    let expected =
      "# rmt instance\n\
       nodes 0 1 2 3 4\n\
       edges 0-1 0-2 0-3 1-4 2-4 3-4\n\
       dealer 0\n\
       receiver 4\n\
       view ad-hoc\n\
       ground 1 2 3 4\n\
       set 1\n\
       set 2\n\
       set 3\n"
    in
    (match Codec.to_string inst with
     | Error m -> Alcotest.fail m
     | Ok text ->
       Alcotest.(check string) "canonical serialization" expected text;
       (* canonical form is a fixpoint of parse ∘ serialize *)
       (match Result.bind (Codec.of_string text) Codec.to_string with
        | Error m -> Alcotest.fail m
        | Ok text' -> Alcotest.(check string) "idempotent" text text'))

(* random-instance roundtrip fuzz *)
let qcheck_codec_roundtrip =
  QCheck.Test.make ~count:60 ~name:"codec roundtrip on random instances"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 4 + Prng.int rng 8 in
      let g = Generators.random_connected_gnp rng n 0.4 in
      let ground = Nodeset.remove 0 (Graph.nodes g) in
      let sets =
        List.init (1 + Prng.int rng 4) (fun _ ->
            Prng.sample rng ground (1 + Prng.int rng (max 1 (n / 2))))
      in
      let structure = Structure.of_sets ~ground sets in
      let view =
        match Prng.int rng 3 with
        | 0 -> View.ad_hoc g
        | 1 -> View.full g
        | _ -> View.radius (Prng.int rng 4) g
      in
      let inst =
        Instance.make ~graph:g ~structure ~view ~dealer:0 ~receiver:(n - 1)
      in
      match Result.bind (Codec.to_string inst) Codec.of_string with
      | Error _ -> false
      | Ok inst' ->
        Graph.equal inst.graph inst'.graph
        && Structure.equal inst.structure inst'.structure
        && inst.dealer = inst'.dealer
        && inst.receiver = inst'.receiver
        && View.label inst.view = View.label inst'.view)

(* view_nodes, which builds no graph for full, ad hoc and radius views,
   = the node set of the view itself, at every node and at one id off the
   graph; and Graph.ball = the nodes of restrict_to_radius = the nodes
   at BFS distance <= k.  gnp graphs may be disconnected, so balls stop
   at component borders. *)
let qcheck_view_nodes =
  QCheck.Test.make ~count:200
    ~name:"view_nodes = V(view); ball = V(restrict_to_radius) = BFS ball"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 12 in
      let g = Generators.random_gnp rng n 0.3 in
      let picks = Array.init n (fun _ -> Prng.subset rng (Graph.nodes g) 0.3) in
      let custom =
        View.of_assignment g (fun v -> Graph.induced (Nodeset.add v picks.(v)) g)
      in
      let views =
        custom :: View.full g :: View.ad_hoc g
        :: List.init 4 (fun k -> View.radius k g)
      in
      let at = (n + Prng.int rng 70) :: Nodeset.elements (Graph.nodes g) in
      let bfs_ball v k =
        Nodeset.of_list
          (List.filter_map
             (fun (u, d) -> if d <= k then Some u else None)
             (Connectivity.distances_from g v))
      in
      List.for_all
        (fun t ->
          List.for_all
            (fun v ->
              Nodeset.equal (View.view_nodes t v) (Graph.nodes (View.view t v)))
            at)
        views
      && List.for_all
           (fun k ->
             List.for_all
               (fun v ->
                 let ball = Graph.ball v k g in
                 Nodeset.equal ball
                   (Graph.nodes (Graph.restrict_to_radius v k g))
                 && Nodeset.equal ball (bfs_ball v k))
               at)
           [ 0; 1; 2; 3 ])

let () =
  Alcotest.run "rmt_knowledge"
    [
      ( "view",
        [
          Alcotest.test_case "full" `Quick test_full_view;
          Alcotest.test_case "ad hoc star" `Quick test_ad_hoc_view;
          Alcotest.test_case "radius" `Quick test_radius_views;
          Alcotest.test_case "partial order" `Quick test_view_partial_order;
          Alcotest.test_case "v ∈ γ(v)" `Quick test_view_membership_invariant;
          Alcotest.test_case "validation" `Quick test_of_assignment_validation;
          Alcotest.test_case "joint" `Quick test_joint_views;
          Alcotest.test_case "local structure" `Quick test_local_structure;
          QCheck_alcotest.to_alcotest qcheck_view_nodes;
        ] );
      ( "instance",
        [
          Alcotest.test_case "construction" `Quick test_instance_ok;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "local access" `Quick test_instance_local_access;
          Alcotest.test_case "with_*" `Quick test_with_structure_and_view;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "radius roundtrip" `Quick test_codec_radius_roundtrip;
          Alcotest.test_case "parse" `Quick test_codec_parse;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "huge ids" `Quick test_codec_huge_ids;
          Alcotest.test_case "custom rejected" `Quick test_codec_custom_rejected;
          Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
          Alcotest.test_case "golden fixture" `Quick test_codec_golden_fixture;
          QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
        ] );
    ]
