(* Tests for the ⊕ joint view operation: Definition 2, Theorem 1,
   Corollary 2 and the semilattice laws (Theorems 11/13/14). *)

open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_core

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

(* random structure over a random sub-ground of {0..universe-1} *)
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

(* All members of a structure by subset enumeration (small grounds). *)
let members s =
  let out = ref [] in
  Nodeset.subsets_iter (Structure.ground s) (fun z ->
      if Structure.mem z s then out := z :: !out);
  !out

(* Definition 2, computed literally. *)
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

let test_identity () =
  let s = Structure.of_sets ~ground:(ns [ 0; 1; 2 ]) [ ns [ 0; 1 ] ] in
  check "left identity" true (Structure.equal s (Joint.join Joint.identity s));
  check "right identity" true (Structure.equal s (Joint.join s Joint.identity))

let test_join_list_empty () =
  check "empty join list" true
    (Structure.equal Joint.identity (Joint.join_list []))

let test_disjoint_grounds () =
  let e = Structure.of_sets ~ground:(ns [ 0; 1 ]) [ ns [ 0 ] ] in
  let f = Structure.of_sets ~ground:(ns [ 2; 3 ]) [ ns [ 2; 3 ] ] in
  let j = Joint.join e f in
  (* disjoint knowledge: every pair of members is compatible *)
  check "cross union" true (Structure.mem (ns [ 0; 2; 3 ]) j);
  check "ground united" true
    (Nodeset.equal (ns [ 0; 1; 2; 3 ]) (Structure.ground j))

let test_overlap_agreement () =
  (* the hand-checked example from the layered graph: stars of nodes 3 and
     5; singleton structures must agree on the overlap *)
  let z3 = Structure.of_sets ~ground:(ns [ 1; 2; 3; 5 ])
      [ ns [ 1 ]; ns [ 2 ]; ns [ 3 ]; ns [ 5 ] ] in
  let z5 = Structure.of_sets ~ground:(ns [ 3; 4; 5 ])
      [ ns [ 3 ]; ns [ 4 ]; ns [ 5 ] ] in
  let j = Joint.join z3 z5 in
  (* 1 and 4 are not co-visible: the joint view cannot rule them both out *)
  check "{1,4} possible" true (Structure.mem (ns [ 1; 4 ]) j);
  (* 3 and 5 are co-visible singletons: they cannot both be corrupted *)
  check "{3,5} impossible" false (Structure.mem (ns [ 3; 5 ]) j);
  check "{1,2} impossible (co-visible in z3)" false
    (Structure.mem (ns [ 1; 2 ]) j)

let test_empty_family_absorbs () =
  let e = Structure.empty_family ~ground:(ns [ 0; 1 ]) in
  let f = Structure.of_sets ~ground:(ns [ 1; 2 ]) [ ns [ 2 ] ] in
  check "empty ⊕ f = empty" true
    (Structure.is_empty_family (Joint.join e f))

(* Operands for [mem_joint]: grounds drawn from one of three 4-node
   windows of {0..11} (same window: overlapping, different windows:
   disjoint) or empty, families random, empty or trivial.  Node 12 lies
   outside every ground. *)
let operand_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* window = int_bound 3 in
    let* kind = int_bound 5 in
    let rng = Prng.create seed in
    let ground =
      if window = 3 then Nodeset.empty
      else Prng.subset rng (Nodeset.range (4 * window) ((4 * window) + 4)) 0.8
    in
    return
      (match kind with
       | 0 -> Structure.empty_family ~ground
       | 1 -> Structure.trivial ~ground
       | _ ->
         Structure.of_sets ~ground
           (List.init (1 + Prng.int rng 3) (fun _ ->
                Prng.sample rng ground (Prng.int rng (1 + Nodeset.size ground))))))

(* [z] is a random subset of {0..12}, or a subset of one of the join's
   maximal sets, or such a subset plus node 12 (outside every ground). *)
let mem_joint_gen =
  QCheck.Gen.(
    let* parts = list_size (int_bound 4) operand_gen in
    let* mode = int_bound 2 in
    let* seed = int_bound 1_000_000 in
    let rng = Prng.create seed in
    let maximal = Structure.maximal_sets (Joint.join_list parts) in
    let z =
      match (mode, maximal) with
      | 0, _ | _, [] -> Prng.subset rng (Nodeset.range 0 13) 0.3
      | _, ms ->
        let m = Prng.subset rng (Prng.pick_list rng ms) 0.7 in
        if mode = 2 then Nodeset.add 12 m else m
    in
    return (z, parts))

let arb_mem_joint =
  QCheck.make
    ~print:(fun (z, parts) ->
      Printf.sprintf "z = %s, parts = [%s]" (Nodeset.to_string z)
        (String.concat "; " (List.map Structure.to_string parts)))
    mem_joint_gen

(* Operands for [mem_restricted]: 𝒵 over a ground that leaves some of
   {0..11} out (node 12 never in it), the empty family, {∅} or random;
   0–3 views over {0..12}, so empty and singleton lists are frequent.  z
   is a random subset of {0..12}, or a subset of a maximal set within the
   views' union (with or without one node outside the ground), or a
   subset of a maximal set, which may reach outside the views. *)
let mem_restricted_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* kind = int_bound 4 in
    let* num_views = int_bound 3 in
    let* mode = int_bound 3 in
    let rng = Prng.create seed in
    let universe = Nodeset.range 0 13 in
    let ground = Prng.subset rng (Nodeset.range 0 12) 0.7 in
    let z =
      match kind with
      | 0 -> Structure.empty_family ~ground
      | 1 -> Structure.trivial ~ground
      | _ ->
        Structure.of_sets ~ground
          (List.init (1 + Prng.int rng 3) (fun _ ->
               Prng.sample rng ground (Prng.int rng (1 + Nodeset.size ground))))
    in
    let views = List.init num_views (fun _ -> Prng.subset rng universe 0.5) in
    let covered = List.fold_left Nodeset.union Nodeset.empty views in
    let member =
      match (mode, Structure.maximal_sets z) with
      | 0, _ | _, [] -> Prng.subset rng universe 0.3
      | 3, ms -> Prng.subset rng (Prng.pick_list rng ms) 0.7
      | _, ms ->
        let m =
          Nodeset.inter covered (Prng.subset rng (Prng.pick_list rng ms) 0.8)
        in
        let outside = Nodeset.elements (Nodeset.diff universe ground) in
        if mode = 2 then Nodeset.add (Prng.pick_list rng outside) m else m
    in
    return (z, views, member))

let arb_mem_restricted =
  QCheck.make
    ~print:(fun (z, views, member) ->
      Printf.sprintf "Z = %s, views = [%s], z = %s" (Structure.to_string z)
        (String.concat "; " (List.map Nodeset.to_string views))
        (Nodeset.to_string member))
    mem_restricted_gen

let qcheck_props =
  [
    QCheck.Test.make ~count:120 ~name:"⊕ matches Definition 2 exactly"
      (QCheck.pair (arb_structure 6) (arb_structure 6)) (fun (e, f) ->
        Structure.equal (Joint.join e f) (brute_join e f));
    QCheck.Test.make ~count:120 ~name:"⊕ commutative (Thm 11)"
      (QCheck.pair (arb_structure 7) (arb_structure 7)) (fun (e, f) ->
        Structure.equal (Joint.join e f) (Joint.join f e));
    QCheck.Test.make ~count:80 ~name:"⊕ associative (Thm 13)"
      (QCheck.triple (arb_structure 6) (arb_structure 6) (arb_structure 6))
      (fun (e, f, h) ->
        Structure.equal
          (Joint.join e (Joint.join f h))
          (Joint.join (Joint.join e f) h));
    QCheck.Test.make ~count:120 ~name:"⊕ idempotent (Thm 14)"
      (arb_structure 7) (fun e -> Structure.equal e (Joint.join e e));
    QCheck.Test.make ~count:120
      ~name:"Corollary 2: Z^(A∪B) ⊆ Z^A ⊕ Z^B"
      (QCheck.triple (arb_structure 7)
         (QCheck.make ~print:Nodeset.to_string
            QCheck.Gen.(map Nodeset.of_list (list_size (int_bound 5) (int_bound 6))))
         (QCheck.make ~print:Nodeset.to_string
            QCheck.Gen.(map Nodeset.of_list (list_size (int_bound 5) (int_bound 6)))))
      (fun (z, a, b) ->
        Structure.subset_family
          (Structure.restrict (Nodeset.union a b) z)
          (Joint.join (Structure.restrict a z) (Structure.restrict b z)));
    QCheck.Test.make ~count:500
      ~name:"mem_joint decides membership in join_list" arb_mem_joint
      (fun (z, parts) ->
        Joint.mem_joint z parts = Structure.mem z (Joint.join_list parts));
    QCheck.Test.make ~count:500
      ~name:"mem_restricted = mem_joint over the restrictions"
      arb_mem_restricted (fun (z, views, member) ->
        Joint.mem_restricted z views member
        = Joint.mem_joint member
            (List.map (fun v -> Structure.restrict v z) views));
    QCheck.Test.make ~count:120
      ~name:"Theorem 1: join restricts back into operands"
      (QCheck.pair (arb_structure 6) (arb_structure 6)) (fun (e, f) ->
        (* every member of E⊕F restricted to A lies in E (and to B in F) *)
        let j = Joint.join e f in
        List.for_all
          (fun m ->
            Structure.mem (Nodeset.inter m (Structure.ground e)) e
            && Structure.mem (Nodeset.inter m (Structure.ground f)) f)
          (Structure.maximal_sets j));
  ]

let test_joint_structure_full_view () =
  let g = Generators.complete 5 in
  let z = Builders.global_threshold g ~dealer:0 2 in
  let view = View.full g in
  let zb = Joint.joint_structure view z (ns [ 1; 2; 3 ]) in
  (* with full views all parts equal Z: the join is Z itself *)
  check "Z_B = Z under full knowledge" true (Structure.equal z zb)

let test_joint_structure_is_weaker () =
  (* ad hoc views on the layered graph: joint knowledge of {3,5} admits
     sets the true structure does not *)
  let g = Generators.layered ~width:2 ~depth:2 in
  let z = Builders.global_threshold g ~dealer:0 1 in
  let view = View.ad_hoc g in
  let zb = Joint.joint_structure view z (ns [ 3; 5 ]) in
  check "true structure is contained" true
    (Structure.subset_family
       (Structure.restrict (Structure.ground zb) z)
       zb);
  check "but not equal: {1,4} admitted" true
    (Structure.mem (ns [ 1; 4 ]) zb && not (Structure.mem (ns [ 1; 4 ]) z))

(* Z_B built by fold-of-joins matches the literal member-wise definition
   {S : ∀u∈B, S∩γ(u) ∈ Z_u} on small universes *)
let test_joint_structure_brute () =
  let rng = Prng.create 9 in
  for _ = 1 to 40 do
    let n = 5 + Prng.int rng 2 in
    let g = Generators.random_connected_gnp rng n 0.5 in
    let z = Builders.random_antichain rng g ~dealer:0 ~sets:3 ~max_size:3 in
    let view = View.ad_hoc g in
    let b = Prng.sample rng (Nodeset.remove 0 (Graph.nodes g)) 3 in
    if not (Nodeset.is_empty b) then begin
      let zb = Joint.joint_structure view z b in
      let ground = View.joint_nodes view b in
      Nodeset.subsets_iter ground (fun s ->
          let literal =
            Nodeset.for_all
              (fun u ->
                Structure.mem
                  (Nodeset.inter s (View.view_nodes view u))
                  (View.local_structure view z u))
              b
          in
          check "Z_B literal" true (Structure.mem s zb = literal))
    end
  done

let test_mem_joint () =
  let e = Structure.of_sets ~ground:(ns [ 0; 1 ]) [ ns [ 0 ] ] in
  let f = Structure.of_sets ~ground:(ns [ 1; 2 ]) [ ns [ 2 ] ] in
  check "member" true (Joint.mem_joint (ns [ 0; 2 ]) [ e; f ]);
  check "not member" false (Joint.mem_joint (ns [ 0; 1 ]) [ e; f ])

let () =
  Alcotest.run "joint"
    [
      ( "unit",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "join_list empty" `Quick test_join_list_empty;
          Alcotest.test_case "disjoint grounds" `Quick test_disjoint_grounds;
          Alcotest.test_case "overlap agreement" `Quick test_overlap_agreement;
          Alcotest.test_case "empty family absorbs" `Quick
            test_empty_family_absorbs;
          Alcotest.test_case "Z_B under full view" `Quick
            test_joint_structure_full_view;
          Alcotest.test_case "Z_B weaker than Z" `Quick
            test_joint_structure_is_weaker;
          Alcotest.test_case "mem_joint" `Quick test_mem_joint;
          Alcotest.test_case "Z_B literal definition" `Quick
            test_joint_structure_brute;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
