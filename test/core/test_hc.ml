(* Tests for the global restriction memo (DESIGN.md §12): it is keyed by
   content, computes the same values as the raw operation, and survives
   a real Domain fan-out (the R6 domain-safety claim rmt-lint
   sanctions).  The cut deciders never reach it; the join-based oracle
   does. *)

open Rmt_base
open Rmt_adversary
open Rmt_knowledge
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

let test_hits_misses_and_clear () =
  Hc.clear ();
  let z = Structure.of_sets ~ground:(ns [ 0; 1; 2; 3 ]) [ ns [ 0; 1 ]; ns [ 2 ] ] in
  ignore (Hc.memo_restrict (ns [ 1; 2 ]) z);
  (* equal content, physically distinct arguments: a hit *)
  let z' = Structure.of_sets ~ground:(ns [ 0; 1; 2; 3 ]) [ ns [ 0; 1 ]; ns [ 2 ] ] in
  ignore (Hc.memo_restrict (ns [ 1; 2 ]) z');
  ignore (Hc.memo_restrict (ns [ 1; 3 ]) z);
  let s = Hc.stats () in
  check "two misses" true (s.Hc.restrict_misses = 2);
  check "one hit" true (s.Hc.restrict_hits = 1);
  Hc.clear ();
  let s = Hc.stats () in
  check "cleared" true (s.Hc.restrict_hits = 0 && s.Hc.restrict_misses = 0);
  ignore (Hc.memo_restrict (ns [ 1; 2 ]) z);
  check "a cleared entry misses again" true
    ((Hc.stats ()).Hc.restrict_misses = 1)

(* Four domains hammer one pool of (set, structure) pairs concurrently;
   every answer must still be the raw restriction, and every call is
   counted once — exactly what the mutex protects. *)
let test_domain_safety () =
  Hc.clear ();
  let universe = Nodeset.range 0 12 in
  let pool =
    Array.init 6 (fun i ->
        let rng = Prng.create (100 + i) in
        Structure.of_sets ~ground:universe
          (List.init 3 (fun _ -> Prng.sample rng universe 4)))
  in
  let calls = 200 in
  let work seed () =
    let rng = Prng.create seed in
    List.init calls (fun _ ->
        let a = Prng.sample rng universe (1 + Prng.int rng 6) in
        let z = pool.(Prng.int rng (Array.length pool)) in
        Structure.equal (Hc.memo_restrict a z) (Structure.restrict a z))
  in
  let domains = List.map (fun s -> Domain.spawn (work s)) [ 1; 2; 3; 4 ] in
  let answers = List.concat_map Domain.join domains in
  check "every answer is Structure.restrict" true (List.for_all Fun.id answers);
  let s = Hc.stats () in
  check "every call counted once" true
    (s.Hc.restrict_hits + s.Hc.restrict_misses = 4 * calls)

let restrict_calls () =
  let s = Hc.stats () in
  s.Hc.restrict_hits + s.Hc.restrict_misses

let checked_in_instances () =
  let dir = "../../instances" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat dir f) with
         | Ok inst -> (f, inst)
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

(* Every decider tests 𝒵_B membership against 𝒵 itself
   (Joint.mem_restricted), so none may touch the memo, under the
   instance's own view or the ad hoc one; Cut.update is run on both of
   its paths.  find_rmt_cut_naive joins restrictions and must still
   reach it. *)
let test_deciders_never_restrict () =
  let paths = ref [] in
  let untouched label f =
    let before = restrict_calls () in
    let r = f () in
    check (label ^ " never restricts") true (restrict_calls () = before);
    r
  in
  let decide (file, view_name, (inst : Instance.t)) =
    let label what = Printf.sprintf "%s, %s view: %s" file view_name what in
    let rmt = untouched (label "find_rmt_cut") (fun () -> Cut.find_rmt_cut inst) in
    untouched (label "find_rmt_zpp_cut") (fun () ->
        ignore (Cut.find_rmt_zpp_cut inst));
    List.iter
      (fun prev ->
        untouched (label "update") (fun () ->
            paths := snd (Cut.update ~prev inst) :: !paths))
      [ rmt; { rmt with cut_found = None } ];
    untouched (label "Broadcast.find_zpp_cut") (fun () ->
        ignore (Broadcast.find_zpp_cut inst));
    untouched (label "Broadcast.blocked_nodes") (fun () ->
        ignore (Broadcast.blocked_nodes inst));
    let before = restrict_calls () in
    if (Cut.find_rmt_cut_naive inst).visited > 0 then
      check (label "find_rmt_cut_naive restricts") true
        (restrict_calls () > before)
  in
  List.iter
    (fun (file, (inst : Instance.t)) ->
      decide (file, "own", inst);
      decide (file, "ad hoc", Instance.with_view inst (View.ad_hoc inst.graph)))
    (checked_in_instances ());
  check "update reused a witness" true (List.mem `Witness_reused !paths);
  check "update re-searched" true (List.mem `Researched !paths)

let qcheck_props =
  [
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
          Alcotest.test_case "stats and clear" `Quick
            test_hits_misses_and_clear;
          Alcotest.test_case "domain safety" `Quick test_domain_safety;
          Alcotest.test_case "deciders never restrict" `Quick
            test_deciders_never_restrict;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
