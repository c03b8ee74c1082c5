open Rmt_base

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Nodeset                                                             *)
(* ------------------------------------------------------------------ *)

let ns = Nodeset.of_list

let nodeset_gen =
  QCheck.Gen.(map Nodeset.of_list (list_size (int_bound 12) (int_bound 80)))

let arb_nodeset =
  QCheck.make ~print:Nodeset.to_string nodeset_gen

let test_empty () =
  check "empty is empty" true (Nodeset.is_empty Nodeset.empty);
  check_int "empty size" 0 (Nodeset.size Nodeset.empty);
  check "no members" false (Nodeset.mem 0 Nodeset.empty)

let test_add_remove () =
  let s = ns [ 1; 5; 100 ] in
  check "mem 1" true (Nodeset.mem 1 s);
  check "mem 5" true (Nodeset.mem 5 s);
  check "mem 100" true (Nodeset.mem 100 s);
  check "not mem 2" false (Nodeset.mem 2 s);
  check_int "size" 3 (Nodeset.size s);
  let s' = Nodeset.remove 5 s in
  check "removed" false (Nodeset.mem 5 s');
  check_int "size after remove" 2 (Nodeset.size s');
  check "remove absent is id" true (Nodeset.equal s (Nodeset.remove 7 s));
  check "add present is id" true (Nodeset.equal s (Nodeset.add 1 s));
  (* no-ops return the input physically unchanged — no allocation *)
  check "add present is physical id" true (Nodeset.add 1 s == s);
  check "remove absent is physical id" true (Nodeset.remove 7 s == s);
  check "add absent still raises on negatives" true
    (match Nodeset.add (-3) s with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_negative_rejected () =
  Alcotest.check_raises "negative id" (Invalid_argument "Nodeset: negative node id")
    (fun () -> ignore (Nodeset.singleton (-1)))

let test_range () =
  check_int "range size" 5 (Nodeset.size (Nodeset.range 2 7));
  check "range lo" true (Nodeset.mem 2 (Nodeset.range 2 7));
  check "range hi-1" true (Nodeset.mem 6 (Nodeset.range 2 7));
  check "range hi excluded" false (Nodeset.mem 7 (Nodeset.range 2 7));
  check "empty range" true (Nodeset.is_empty (Nodeset.range 5 5));
  check "inverted range" true (Nodeset.is_empty (Nodeset.range 7 2))

let test_set_algebra () =
  let a = ns [ 1; 2; 3 ] and b = ns [ 3; 4 ] in
  check "union" true (Nodeset.equal (ns [ 1; 2; 3; 4 ]) (Nodeset.union a b));
  check "inter" true (Nodeset.equal (ns [ 3 ]) (Nodeset.inter a b));
  check "diff" true (Nodeset.equal (ns [ 1; 2 ]) (Nodeset.diff a b));
  check "subset yes" true (Nodeset.subset (ns [ 1; 3 ]) a);
  check "subset no" false (Nodeset.subset b a);
  check "disjoint no" false (Nodeset.disjoint a b);
  check "disjoint yes" true (Nodeset.disjoint a (ns [ 9; 64; 200 ]))

let test_cross_word_boundaries () =
  (* elements straddling several 62-bit words *)
  let a = ns [ 0; 61; 62; 63; 124; 300 ] in
  check_int "size" 6 (Nodeset.size a);
  check "mem 300" true (Nodeset.mem 300 a);
  let b = Nodeset.remove 300 a in
  check "trailing word trimmed: equal to explicit" true
    (Nodeset.equal b (ns [ 0; 61; 62; 63; 124 ]));
  (* normalization means arrays compare equal structurally *)
  check_int "compare equal" 0 (Nodeset.compare b (ns [ 124; 63; 62; 61; 0 ]))

let test_elements_sorted () =
  Alcotest.(check (list int))
    "ascending" [ 1; 2; 50; 63; 64 ]
    (Nodeset.elements (ns [ 64; 2; 50; 1; 63 ]))

let test_min_max_choose () =
  let s = ns [ 9; 4; 70 ] in
  Alcotest.(check (option int)) "min" (Some 4) (Nodeset.min_elt_opt s);
  Alcotest.(check (option int)) "max" (Some 70) (Nodeset.max_elt_opt s);
  Alcotest.(check (option int)) "choose empty" None
    (Nodeset.choose_opt Nodeset.empty)

let test_subsets_iter () =
  let count = ref 0 in
  Nodeset.subsets_iter (ns [ 1; 2; 3 ]) (fun _ -> incr count);
  check_int "2^3 subsets" 8 !count;
  let seen_full = ref false in
  Nodeset.subsets_iter (ns [ 1; 2 ]) (fun s ->
      if Nodeset.size s = 2 then seen_full := true);
  check "full subset visited" true !seen_full;
  Alcotest.check_raises "guard"
    (Invalid_argument "Nodeset.subsets_iter: universe too large") (fun () ->
      Nodeset.subsets_iter (Nodeset.range 0 21) (fun _ -> ()))

let test_fold_iter_filter () =
  let s = ns [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Nodeset.fold ( + ) s 0);
  check "for_all" true (Nodeset.for_all (fun v -> v > 0) s);
  check "exists" true (Nodeset.exists (fun v -> v = 3) s);
  check "exists no" false (Nodeset.exists (fun v -> v = 9) s);
  check "filter" true
    (Nodeset.equal (ns [ 2; 4 ]) (Nodeset.filter (fun v -> v mod 2 = 0) s))

let test_pp () =
  Alcotest.(check string) "pp" "{1, 2, 10}" (Nodeset.to_string (ns [ 10; 1; 2 ]))


let qcheck_nodeset =
  [
    QCheck.Test.make ~count:200 ~name:"union commutative"
      (QCheck.pair arb_nodeset arb_nodeset) (fun (a, b) ->
        Nodeset.equal (Nodeset.union a b) (Nodeset.union b a));
    QCheck.Test.make ~count:200 ~name:"inter assoc"
      (QCheck.triple arb_nodeset arb_nodeset arb_nodeset) (fun (a, b, c) ->
        Nodeset.equal
          (Nodeset.inter a (Nodeset.inter b c))
          (Nodeset.inter (Nodeset.inter a b) c));
    QCheck.Test.make ~count:200 ~name:"de morgan: a\\(b∪c) = (a\\b)∩(a\\c)"
      (QCheck.triple arb_nodeset arb_nodeset arb_nodeset) (fun (a, b, c) ->
        Nodeset.equal
          (Nodeset.diff a (Nodeset.union b c))
          (Nodeset.inter (Nodeset.diff a b) (Nodeset.diff a c)));
    QCheck.Test.make ~count:200 ~name:"subset antisymmetric"
      (QCheck.pair arb_nodeset arb_nodeset) (fun (a, b) ->
        (not (Nodeset.subset a b && Nodeset.subset b a)) || Nodeset.equal a b);
    QCheck.Test.make ~count:200 ~name:"compare consistent with equal"
      (QCheck.pair arb_nodeset arb_nodeset) (fun (a, b) ->
        Nodeset.compare a b = 0 = Nodeset.equal a b);
    QCheck.Test.make ~count:200 ~name:"size of union ≤ sum of sizes"
      (QCheck.pair arb_nodeset arb_nodeset) (fun (a, b) ->
        Nodeset.size (Nodeset.union a b) <= Nodeset.size a + Nodeset.size b);
    QCheck.Test.make ~count:200 ~name:"diff then union restores subset"
      (QCheck.pair arb_nodeset arb_nodeset) (fun (a, b) ->
        Nodeset.equal
          (Nodeset.union (Nodeset.diff a b) (Nodeset.inter a b))
          a);
  ]

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 99 and b = Prng.create 99 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_prng_bounds () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    check "in bounds" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_split () =
  let rng = Prng.create 5 in
  let child = Prng.split rng in
  let a = Prng.int rng 1_000_000 and b = Prng.int child 1_000_000 in
  (* different streams almost surely differ; fixed seed makes it exact *)
  check "split independent" true (a <> b)

let test_prng_float () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    let f = Prng.float rng 2.5 in
    check "float range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_shuffle () =
  let rng = Prng.create 11 in
  let a = Array.init 30 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 30 Fun.id) sorted

let test_prng_sample () =
  let rng = Prng.create 13 in
  let s = Nodeset.range 0 20 in
  let sub = Prng.sample rng s 5 in
  check_int "sample size" 5 (Nodeset.size sub);
  check "sample subset" true (Nodeset.subset sub s);
  let all = Prng.sample rng s 100 in
  check "capped at size" true (Nodeset.equal all s)

let test_prng_subset () =
  let rng = Prng.create 17 in
  let s = Nodeset.range 0 50 in
  let sub = Prng.subset rng s 0.5 in
  check "subset" true (Nodeset.subset sub s);
  check "empty at p=0" true (Nodeset.is_empty (Prng.subset rng s 0.0));
  check "full at p=1... "
    true
    (Nodeset.equal s (Prng.subset rng s 1.1))

let test_prng_pick () =
  let rng = Prng.create 19 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 50 do
    check "pick member" true (Array.mem (Prng.pick rng a) a)
  done;
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick rng [||]))

(* ------------------------------------------------------------------ *)
(* Util                                                                *)
(* ------------------------------------------------------------------ *)

let test_util_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Util.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Util.mean []);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Util.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Util.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "p100" 9.0
    (Util.percentile 1.0 [ 9.; 1.; 5. ]);
  Alcotest.(check (float 1e-9)) "p50" 5.0 (Util.percentile 0.5 [ 9.; 1.; 5. ])

let test_util_lists () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Util.list_take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take overlong" [ 1 ] (Util.list_take 5 [ 1 ]);
  check_int "sum_by" 6 (Util.sum_by Fun.id [ 1; 2; 3 ])

let test_util_group_by () =
  let groups =
    Util.group_by ~cmp:Int.compare (fun x -> x mod 2) [ 1; 2; 3; 4; 5 ]
  in
  check_int "two groups" 2 (List.length groups);
  Alcotest.(check (list int)) "evens" [ 2; 4 ] (List.assoc 0 groups);
  Alcotest.(check (list int)) "odds" [ 1; 3; 5 ] (List.assoc 1 groups)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.to_string ~title:"demo" t in
  check "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  check "mentions alpha" true (contains ~needle:"alpha" s);
  check "short rows padded" true (contains ~needle:"| b " s)

let test_table_cells () =
  Alcotest.(check string) "pct" "25.0%" (Table.cell_pct 0.25);
  Alcotest.(check string) "bool" "yes" (Table.cell_bool true);
  Alcotest.(check string) "ratio" "3/4" (Table.cell_ratio 3 4)

let () =

  Alcotest.run "rmt_base"
    [
      ( "nodeset",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "negative rejected" `Quick test_negative_rejected;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "set algebra" `Quick test_set_algebra;
          Alcotest.test_case "word boundaries" `Quick test_cross_word_boundaries;
          Alcotest.test_case "elements sorted" `Quick test_elements_sorted;
          Alcotest.test_case "min/max/choose" `Quick test_min_max_choose;
          Alcotest.test_case "subsets_iter" `Quick test_subsets_iter;
          Alcotest.test_case "fold/iter/filter" `Quick test_fold_iter_filter;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ("nodeset-properties", List.map QCheck_alcotest.to_alcotest qcheck_nodeset);
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "float" `Quick test_prng_float;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle;
          Alcotest.test_case "sample" `Quick test_prng_sample;
          Alcotest.test_case "subset" `Quick test_prng_subset;
          Alcotest.test_case "pick" `Quick test_prng_pick;
        ] );
      ( "util",
        [
          Alcotest.test_case "stats" `Quick test_util_stats;
          Alcotest.test_case "lists" `Quick test_util_lists;
          Alcotest.test_case "group_by" `Quick test_util_group_by;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
