open Rmt_base
open Rmt_graph
open Rmt_adversary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Nodeset.of_list

(* random structure over a small universe *)
let structure_gen ?(universe = 8) () =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Prng.create seed in
    let ground = Nodeset.range 0 universe in
    let* k = int_range 1 5 in
    let sets =
      List.init k (fun _ -> Prng.sample rng ground (1 + Prng.int rng 4))
    in
    return (Structure.of_sets ~ground sets))

let arb_structure =
  QCheck.make ~print:Structure.to_string (structure_gen ())

let arb_set =
  QCheck.make ~print:Nodeset.to_string
    QCheck.Gen.(map Nodeset.of_list (list_size (int_bound 6) (int_bound 7)))

(* ------------------------------------------------------------------ *)
(* Structure basics                                                    *)
(* ------------------------------------------------------------------ *)

let test_antichain_reduction () =
  let ground = Nodeset.range 0 5 in
  let s = Structure.of_sets ~ground [ ns [ 1 ]; ns [ 1; 2 ]; ns [ 3 ] ] in
  check_int "dominated set dropped" 2 (Structure.num_maximal s);
  check "subset member" true (Structure.mem (ns [ 1 ]) s);
  check "empty member" true (Structure.mem Nodeset.empty s);
  check "union not member" false (Structure.mem (ns [ 1; 3 ]) s)

let test_outside_ground_rejected () =
  Alcotest.check_raises "outside ground"
    (Invalid_argument "Structure.of_sets: set outside ground") (fun () ->
      ignore (Structure.of_sets ~ground:(ns [ 0; 1 ]) [ ns [ 2 ] ]))

let test_trivial_and_empty () =
  let ground = ns [ 0; 1 ] in
  let t = Structure.trivial ~ground in
  check "trivial has empty set" true (Structure.mem Nodeset.empty t);
  check "trivial has nothing else" false (Structure.mem (ns [ 0 ]) t);
  let e = Structure.empty_family ~ground in
  check "empty family empty" true (Structure.is_empty_family e);
  check "not even empty set" false (Structure.mem Nodeset.empty e)

let binom n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else begin
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let test_threshold () =
  let ground = Nodeset.range 0 6 in
  let s = Structure.threshold ~ground 2 in
  check_int "C(6,2) maximal sets" (binom 6 2) (Structure.num_maximal s);
  check "pair in" true (Structure.mem (ns [ 0; 5 ]) s);
  check "triple out" false (Structure.mem (ns [ 0; 1; 2 ]) s);
  check "zero threshold" true
    (Structure.equal (Structure.threshold ~ground 0) (Structure.trivial ~ground));
  check "over-threshold saturates" true
    (Structure.mem ground (Structure.threshold ~ground 99))

let test_of_predicate_matches_threshold () =
  let ground = Nodeset.range 0 6 in
  let s1 = Structure.threshold ~ground 2 in
  let s2 = Structure.of_predicate ~ground (fun z -> Nodeset.size z <= 2) in
  check "same structure" true (Structure.equal s1 s2)

let test_of_predicate_monotone_guard () =
  let ground = Nodeset.range 0 4 in
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Structure.of_predicate: predicate not monotone")
    (fun () ->
      ignore (Structure.of_predicate ~ground (fun z -> Nodeset.size z = 2)))

let test_restrict () =
  let ground = Nodeset.range 0 6 in
  let s = Structure.of_sets ~ground [ ns [ 0; 1; 2 ]; ns [ 3; 4 ] ] in
  let r = Structure.restrict (ns [ 1; 2; 3 ]) s in
  check "ground restricted" true
    (Nodeset.equal (ns [ 1; 2; 3 ]) (Structure.ground r));
  check "intersected member" true (Structure.mem (ns [ 1; 2 ]) r);
  check "other side" true (Structure.mem (ns [ 3 ]) r);
  check "cross union excluded" false (Structure.mem (ns [ 1; 3 ]) r)

let test_add_set () =
  let s = Structure.trivial ~ground:(ns [ 0; 1 ]) in
  let s' = Structure.add_set (ns [ 0; 1 ]) s in
  check "added" true (Structure.mem (ns [ 0; 1 ]) s');
  check_int "antichain collapsed" 1 (Structure.num_maximal s')

let test_family_ops () =
  let ground = Nodeset.range 0 5 in
  let a = Structure.of_sets ~ground [ ns [ 0; 1 ] ] in
  let u = Structure.of_sets ~ground [ ns [ 0; 1 ]; ns [ 1; 2 ] ] in
  let i = Structure.of_sets ~ground [ ns [ 1 ] ] in
  check "subset_family" true (Structure.subset_family i a);
  check "subset_family strict" false (Structure.subset_family u a)

(* ------------------------------------------------------------------ *)
(* Structure properties                                                *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  [
    QCheck.Test.make ~count:150 ~name:"membership downward closed"
      (QCheck.pair arb_structure arb_set) (fun (s, z) ->
        let z = Nodeset.inter z (Structure.ground s) in
        (not (Structure.mem z s))
        || Nodeset.for_all (fun v -> Structure.mem (Nodeset.remove v z) s) z);
    QCheck.Test.make ~count:150 ~name:"maximal sets are members"
      arb_structure (fun s ->
        List.for_all (fun m -> Structure.mem m s) (Structure.maximal_sets s));
    QCheck.Test.make ~count:150 ~name:"restrict twice = restrict of inter"
      (QCheck.triple arb_structure arb_set arb_set) (fun (s, a, b) ->
        Structure.equal
          (Structure.restrict a (Structure.restrict b s))
          (Structure.restrict (Nodeset.inter a b) s));
    QCheck.Test.make ~count:150 ~name:"mem respects restriction"
      (QCheck.triple arb_structure arb_set arb_set) (fun (s, a, z) ->
        let z = Nodeset.inter z (Structure.ground s) in
        (not (Structure.mem z s))
        || Structure.mem (Nodeset.inter z a) (Structure.restrict a s));
    QCheck.Test.make ~count:150 ~name:"restrict to ground is identity"
      arb_structure (fun s ->
        Structure.equal s (Structure.restrict (Structure.ground s) s));
  ]

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let test_global_threshold_builder () =
  let g = Generators.complete 5 in
  let s = Builders.global_threshold g ~dealer:0 2 in
  check "dealer excluded" false (Nodeset.mem 0 (Structure.ground s));
  check "pair" true (Structure.mem (ns [ 1; 2 ]) s);
  check "triple" false (Structure.mem (ns [ 1; 2; 3 ]) s)

let test_t_local_builder () =
  let g = Generators.cycle 6 in
  let s = Builders.t_local g ~dealer:0 1 in
  (* every member has at most 1 node in each neighborhood *)
  check "local bound respected" true
    (List.for_all
       (fun m ->
         Nodeset.for_all
           (fun v ->
             Nodeset.size (Nodeset.inter m (Graph.neighbors v g)) <= 1)
           (Graph.nodes g))
       (Structure.maximal_sets s));
  (* opposite nodes don't share a neighborhood: both can be corrupted *)
  check "antipodal pair admissible" true (Structure.mem (ns [ 2; 5 ]) s);
  check "adjacent-to-same pair rejected" false (Structure.mem (ns [ 1; 3 ]) s)

let test_t_local_vs_predicate () =
  let g = Generators.grid 2 3 in
  let s1 = Builders.t_local g ~dealer:0 1 in
  let ground = Nodeset.remove 0 (Graph.nodes g) in
  let s2 =
    Structure.of_predicate ~ground (fun z ->
        Nodeset.for_all
          (fun v -> Nodeset.size (Nodeset.inter z (Graph.neighbors v g)) <= 1)
          (Graph.nodes g))
  in
  check "same family" true (Structure.equal s1 s2)

let test_random_antichain_builder () =
  let rng = Prng.create 77 in
  let g = Generators.complete 8 in
  let s = Builders.random_antichain rng g ~dealer:0 ~sets:6 ~max_size:3 in
  check "within ground" true
    (Nodeset.subset (Structure.ground s) (Nodeset.remove 0 (Graph.nodes g)));
  check "bounded sizes" true
    (List.for_all
       (fun m -> Nodeset.size m <= 3)
       (Structure.maximal_sets s))

let test_from_maximal_clips_dealer () =
  let g = Generators.path_graph 4 in
  let s = Builders.from_maximal g ~dealer:0 [ ns [ 0; 1 ] ] in
  check "dealer clipped" true (Structure.mem (ns [ 1 ]) s);
  check "dealer not member" false (Structure.mem (ns [ 0 ]) s)

let () =
  Alcotest.run "rmt_adversary"
    [
      ( "structure",
        [
          Alcotest.test_case "antichain reduction" `Quick test_antichain_reduction;
          Alcotest.test_case "ground check" `Quick test_outside_ground_rejected;
          Alcotest.test_case "trivial/empty" `Quick test_trivial_and_empty;
          Alcotest.test_case "threshold" `Quick test_threshold;
          Alcotest.test_case "predicate=threshold" `Quick
            test_of_predicate_matches_threshold;
          Alcotest.test_case "monotone guard" `Quick
            test_of_predicate_monotone_guard;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "add_set" `Quick test_add_set;
          Alcotest.test_case "family ops" `Quick test_family_ops;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ( "builders",
        [
          Alcotest.test_case "global threshold" `Quick test_global_threshold_builder;
          Alcotest.test_case "t-local" `Quick test_t_local_builder;
          Alcotest.test_case "t-local vs predicate" `Quick test_t_local_vs_predicate;
          Alcotest.test_case "random antichain" `Quick test_random_antichain_builder;
          Alcotest.test_case "dealer clipped" `Quick test_from_maximal_clips_dealer;
        ] );
    ]
