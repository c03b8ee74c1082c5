(* Tests for the hash-consing layer (DESIGN.md §12): canonical identity
   coincides with the typed equalities, the global memos compute the
   same values as the raw operations, and the tables survive a real
   Domain fan-out (the R6 domain-safety claim rmt-lint sanctions). *)

open Rmt_base
open Rmt_adversary
open Rmt_core

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

let arb_set =
  QCheck.make
    ~print:Nodeset.to_string
    QCheck.Gen.(
      map Nodeset.of_list (list_size (int_bound 8) (int_bound 12)))

let structure_gen universe =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Prng.create seed in
    let all = Nodeset.range 0 universe in
    let ground = Prng.subset rng all 0.7 in
    let* k = int_range 1 4 in
    let sets =
      List.init k (fun _ ->
          Prng.sample rng ground (Prng.int rng (1 + Nodeset.size ground)))
    in
    return (Structure.of_sets ~ground sets))

let arb_structure u = QCheck.make ~print:Structure.to_string (structure_gen u)

let test_canonical () =
  Hc.clear ();
  let a = ns [ 1; 3; 7 ] in
  let b = ns [ 1; 3; 7 ] in
  check "same content, same canonical value" true (Hc.set a == Hc.set b);
  check "same content, same id" true (Hc.set_id a = Hc.set_id b);
  check "distinct content, distinct id" false
    (Hc.set_id a = Hc.set_id (ns [ 1; 3 ]));
  let s1 = Structure.of_sets ~ground:(ns [ 0; 1; 2 ]) [ ns [ 0; 1 ] ] in
  let s2 = Structure.of_sets ~ground:(ns [ 0; 1; 2 ]) [ ns [ 0; 1 ] ] in
  check "same structure, same canonical value" true
    (Hc.structure s1 == Hc.structure s2);
  check "structure ids agree" true (Hc.structure_id s1 = Hc.structure_id s2)

let test_stats_and_clear () =
  Hc.clear ();
  ignore (Hc.set (ns [ 1; 2 ]));
  ignore (Hc.set (ns [ 1; 2 ]));
  let s = Hc.stats () in
  check "one miss" true (s.Hc.set_misses = 1);
  check "one hit" true (s.Hc.set_hits = 1);
  Hc.clear ();
  let s = Hc.stats () in
  check "cleared" true (s.Hc.set_hits = 0 && s.Hc.set_misses = 0)

(* Four domains hammer the same value universe concurrently; afterwards
   ids must be a function of content — exactly the property the mutex
   protects.  (rmt-lint's R6 pass sanctions closures whose only mutable
   reach is lib/core/hc.ml on the strength of this test.) *)
let test_domain_safety () =
  Hc.clear ();
  let work seed () =
    let rng = Prng.create seed in
    List.init 200 (fun _ ->
        let z = Prng.sample rng (Nodeset.range 0 12) (1 + Prng.int rng 6) in
        (Nodeset.elements z, Hc.set_id z))
  in
  let domains = List.map (fun s -> Domain.spawn (work s)) [ 1; 2; 3; 4 ] in
  let pairs = List.concat_map Domain.join domains in
  List.iter
    (fun (elts1, id1) ->
      List.iter
        (fun (elts2, id2) ->
          check "id iff content" true ((elts1 = elts2) = (id1 = id2)))
        pairs)
    pairs

let qcheck_props =
  [
    QCheck.Test.make ~count:300
      ~name:"hash-consed set equality coincides with Nodeset.equal"
      (QCheck.pair arb_set arb_set)
      (fun (a, b) -> Hc.equal_set a b = Nodeset.equal a b);
    QCheck.Test.make ~count:200
      ~name:"hash-consed structure equality coincides with Structure.equal"
      (QCheck.pair (arb_structure 6) (arb_structure 6))
      (fun (s1, s2) -> Hc.equal_structure s1 s2 = Structure.equal s1 s2);
    QCheck.Test.make ~count:200
      ~name:"memo_restrict computes Structure.restrict"
      (QCheck.pair arb_set (arb_structure 8))
      (fun (a, z) ->
        Structure.equal (Hc.memo_restrict a z) (Structure.restrict a z)
        (* and again, through the cache *)
        && Structure.equal (Hc.memo_restrict a z) (Structure.restrict a z));
  ]

let () =
  Alcotest.run "hc"
    [
      ( "unit",
        [
          Alcotest.test_case "canonical cells" `Quick test_canonical;
          Alcotest.test_case "stats and clear" `Quick test_stats_and_clear;
          Alcotest.test_case "domain safety" `Quick test_domain_safety;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
