(* Equivalence of the incremental operators with their from-scratch
   counterparts: Joint.join_delta vs Joint.join under operand growth,
   Cut.update vs Cut.find_rmt_cut along random delta streams, and the
   Service giving the same feasibility answers as one-shot Solvability
   at every generation. *)

open Rmt_base
open Rmt_adversary
open Rmt_knowledge
open Rmt_core

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

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

(* grow a structure in place: add random subsets of its own ground set,
   keeping the ground fixed (the join_delta fast-path precondition) *)
let grow rng s k =
  let ground = Structure.ground s in
  List.fold_left
    (fun acc _ ->
      if Nodeset.is_empty ground then acc
      else
        Structure.add_set
          (Prng.sample rng ground (1 + Prng.int rng (Nodeset.size ground)))
          acc)
    s (List.init k Fun.id)

let qcheck_props =
  [
    QCheck.Test.make ~count:150
      ~name:"join_delta (growth) = join from scratch, incremental path"
      (QCheck.triple (arb_structure 7) (arb_structure 7)
         (QCheck.make QCheck.Gen.(int_bound 1_000_000)))
      (fun (e, f, seed) ->
        let rng = Prng.create seed in
        let e' = grow rng e (1 + Prng.int rng 3) in
        let f' = grow rng f (Prng.int rng 3) in
        let prev = Joint.join e f in
        let j, tag = Joint.join_delta ~prev ~e ~f ~e' ~f' in
        Structure.equal j (Joint.join e' f') && tag = `Incremental);
    QCheck.Test.make ~count:100
      ~name:"join_delta falls back (and is exact) on non-growth deltas"
      (QCheck.triple (arb_structure 6) (arb_structure 6) (arb_structure 6))
      (fun (e, f, e') ->
        let prev = Joint.join e f in
        let j, _ = Joint.join_delta ~prev ~e ~f ~e' ~f':f in
        Structure.equal j (Joint.join e' f));
    QCheck.Test.make ~count:150
      ~name:"join_delta: unchanged operands return prev itself"
      (QCheck.pair (arb_structure 7) (arb_structure 7))
      (fun (e, f) ->
        let prev = Joint.join e f in
        let j, tag = Joint.join_delta ~prev ~e ~f ~e':e ~f':f in
        j == prev && tag = `Incremental);
    QCheck.Test.make ~count:60
      ~name:"Cut.update agrees with find_rmt_cut at every stream step"
      Rmt_test_gen.Gen.arb_instance_with_stream
      (fun (inst0, stream) ->
        let rec go inst prev = function
          | [] -> true
          | d :: rest -> (
            match Delta.apply inst d with
            | Error _ -> false (* generator promised a valid stream *)
            | Ok inst' ->
              let fresh = Cut.find_rmt_cut inst' in
              let upd, _ = Cut.update ~prev inst' in
              Cut.exists_certainly upd = Cut.exists_certainly fresh
              && Cut.absent_certainly upd = Cut.absent_certainly fresh
              && (* a reused witness must itself pass the direct check *)
              (match upd.Cut.cut_found with
               | Some w -> Cut.is_rmt_cut inst' w.Cut.c1 w.Cut.c2
               | None -> true)
              && go inst' upd rest)
        in
        go inst0 (Cut.find_rmt_cut inst0) stream);
    QCheck.Test.make ~count:60
      ~name:"Service feasibility = one-shot Solvability at every generation"
      Rmt_test_gen.Gen.arb_instance_with_stream
      (fun (inst0, stream) ->
        let service = Service.create inst0 in
        let ok0 =
          Solvability.feasibility_equal (Service.solvable service)
            (Solvability.partial_knowledge inst0)
        in
        let rec go inst ok = function
          | [] -> ok
          | d :: rest -> (
            match Delta.apply inst d with
            | Error _ -> false
            | Ok inst' ->
              (match Service.apply service d with
               | Error _ -> false
               | Ok () ->
                 let agree =
                   Solvability.feasibility_equal (Service.solvable service)
                     (Solvability.partial_knowledge inst')
                   (* second query must come from the generation cache *)
                   && Solvability.feasibility_equal (Service.solvable service)
                        (Solvability.partial_knowledge inst')
                 in
                 go inst' (ok && agree) rest))
        in
        ok0 && go inst0 ok0 stream);
  ]

let test_service_stats () =
  let g = Rmt_graph.Generators.layered ~width:3 ~depth:2 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~dealer:0 ~receiver:7
  in
  let s = Service.create inst in
  ignore (Service.solvable s);
  ignore (Service.solvable s);
  let st = Service.stats s in
  check "two queries" true (st.Service.queries = 2);
  check "one search" true (st.Service.searches = 1);
  check "one cached" true (st.Service.cached = 1);
  check "no updates yet" true (st.Service.updates = 0 && Service.generation s = 0);
  (match Service.apply s (Delta.Add_set (ns [ 4; 5 ])) with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check "generation bumped" true (Service.generation s = 1);
  check "now unsolvable" true
    (Solvability.feasibility_equal (Service.solvable s) Solvability.Unsolvable);
  check "rejected counted" true
    (Result.is_error (Service.apply s (Delta.Remove_node 0))
     && (Service.stats s).Service.rejected = 1)

let test_protocol_roundtrip () =
  let parse s =
    match Service.parse_command s with
    | Ok (Some c) -> c
    | Ok None -> Alcotest.fail ("unexpected skip: " ^ s)
    | Error m -> Alcotest.fail m
  in
  check "comment skipped" true (Service.parse_command "# hi" = Ok None);
  check "blank skipped" true (Service.parse_command "   " = Ok None);
  check "bad command rejected" true
    (Result.is_error (Service.parse_command "frobnicate 3"));
  let g = Rmt_graph.Generators.layered ~width:3 ~depth:2 in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~dealer:0 ~receiver:7
  in
  let s = Service.create inst in
  check "solvable line" true
    (String.equal (Service.exec s (parse "solvable?")) "solvable");
  check "update line" true
    (String.equal (Service.exec s (parse "add-set 4,5")) "ok 1");
  check "cut line" true
    (String.equal (Service.exec s (parse "cut?")) "cut c1=6 c2=4,5");
  check "stats line" true
    (String.equal
       (Service.exec s (parse "stats?"))
       "stats updates=1 rejected=0 queries=2 cached=0 reused=0 searched=2")

(* Streams from a single-edge instance can remove its only edge; an edge
   removal sampled on the edgeless graph must be retried, not raise, and
   every stream must still replay. *)
let test_stream_edgeless () =
  let g = Rmt_graph.Graph.of_edges [ (0, 1) ] in
  let inst =
    Instance.ad_hoc_of ~graph:g
      ~structure:(Structure.empty_family ~ground:Nodeset.empty)
      ~dealer:0 ~receiver:1
  in
  for seed = 0 to 49 do
    let stream = Rmt_test_gen.Gen.delta_stream (Prng.create seed) inst 12 in
    check
      (Printf.sprintf "seed %d replays" seed)
      true
      (Result.is_ok (Delta.apply_all inst stream))
  done

let () =
  Alcotest.run "incremental"
    [
      ( "unit",
        [
          Alcotest.test_case "service stats" `Quick test_service_stats;
          Alcotest.test_case "replay protocol" `Quick test_protocol_roundtrip;
          Alcotest.test_case "edgeless delta stream" `Quick
            test_stream_edgeless;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
