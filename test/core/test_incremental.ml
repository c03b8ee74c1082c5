(* Equivalence of the incremental operators with their from-scratch
   counterparts: Cut.update vs Cut.find_rmt_cut along random delta
   streams, and the Service giving the same feasibility answers as
   one-shot Solvability at every generation. *)

open Rmt_base
open Rmt_adversary
open Rmt_knowledge
open Rmt_core

let check = Alcotest.(check bool)
let ns = Nodeset.of_list

(* An arbitrary (C₁, C₂), not only a witness some search produced: C
   mostly avoids D and R (so it can separate them), and C₁ is C cut down
   to a maximal admissible set or a random part of C. *)
let arbitrary_split rng (inst : Instance.t) =
  let nodes = Rmt_graph.Graph.nodes inst.graph in
  let pool =
    if Prng.int rng 8 = 0 then nodes
    else Nodeset.remove inst.dealer (Nodeset.remove inst.receiver nodes)
  in
  let c = Prng.subset rng pool (0.2 +. Prng.float rng 0.6) in
  let c1 =
    match Structure.maximal_sets inst.structure with
    | _ :: _ as maximal when Prng.bool rng ->
      Nodeset.inter c (Prng.pick_list rng maximal)
    | _ -> Prng.subset rng c 0.5
  in
  (c1, Nodeset.diff c c1)

let qcheck_props =
  [
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
    QCheck.Test.make ~count:300
      ~name:"Cut.update reuses an arbitrary split iff is_rmt_cut holds"
      (QCheck.pair Rmt_test_gen.Gen.arb_instance
         (QCheck.make QCheck.Gen.(int_bound 1_000_000)))
      (fun (inst, seed) ->
        let c1, c2 = arbitrary_split (Prng.create seed) inst in
        let c = Nodeset.union c1 c2 in
        let prev =
          { Cut.cut_found =
              Some { Cut.b_side = Nodeset.empty; cut = Nodeset.empty; c1; c2 };
            complete = false;
            visited = 0 }
        in
        let oracle = Cut.is_rmt_cut inst c1 c2 in
        match Cut.update ~prev inst with
        | { Cut.cut_found = Some w; complete; visited }, `Witness_reused ->
          oracle && complete && visited = 0
          && Nodeset.equal w.Cut.c1 c1 && Nodeset.equal w.Cut.c2 c2
          && Nodeset.equal w.Cut.cut c
          && Nodeset.equal w.Cut.b_side
               (Rmt_graph.Connectivity.component_of ~avoiding:c inst.graph
                  inst.receiver)
        | { Cut.cut_found = None; _ }, `Witness_reused -> false
        | _, `Researched -> not oracle);
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
  (* node ids share the .rmt parser's limit; nothing sized by a refused id
     is built *)
  let big = string_of_int (Rmt_knowledge.Codec.max_node_id + 1) in
  List.iter
    (fun line ->
      check ("rejected: " ^ line) true
        (Result.is_error (Service.parse_command line)))
    [
      "add-node 1000000000";
      "add-node " ^ big;
      "add-node 3 0," ^ big;
      "add-edge 0 " ^ big;
      "remove-node -1";
      "add-set 4,99999999999";
      "remove-set 4,";
      "add-edge 4";
    ];
  check "limit id accepted" true
    (Result.is_ok
       (Service.parse_command
          ("add-node " ^ string_of_int Rmt_knowledge.Codec.max_node_id)));
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

(* Minor-heap words allocated by one call of [f], after a warm-up call. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Allocation guard, independent of host speed: on a 50-node layered
   instance under radius-1 views, one Remove_edge delta allocates at most
   8|V| minor-heap words (one adjacency copy) and one view_nodes at most
   |V| (a BFS ball of one-word sets).  Rebuilding the graph edge by edge
   (|E| = 264 adjacency copies here) or building the view graph to read
   its nodes (an adjacency array of at least |V| slots) breaks them. *)
let test_allocation_bounds () =
  let g = Rmt_graph.Generators.layered ~width:6 ~depth:8 in
  let n = Rmt_graph.Graph.num_nodes g in
  let inst =
    Instance.make ~graph:g
      ~structure:(Builders.global_threshold g ~dealer:0 1)
      ~view:(View.radius 1 g) ~dealer:0 ~receiver:(n - 1)
  in
  let remove =
    minor_words (fun () -> Delta.apply inst (Delta.Remove_edge (8, 14)))
  in
  let ball = minor_words (fun () -> View.view_nodes inst.view 20) in
  check (Printf.sprintf "remove-edge: %.0f words <= 8|V|" remove) true
    (remove <= float_of_int (8 * n));
  check (Printf.sprintf "view_nodes: %.0f words <= |V|" ball) true
    (ball <= float_of_int n)

(* The same guard for the topology generators: each collects its edge
   list and builds the graph once, so a 50-node layered graph and a
   10×10 grid stay within 10(|V| + |E|) minor-heap words (the list cells
   and pairs, the adjacency array and its sets).  Folding Graph.add_edge
   copies the adjacency array per edge and reads 4–9× over the bound. *)
let test_generator_allocation () =
  List.iter
    (fun (name, f) ->
      let g = f () and used = minor_words f in
      let bound =
        10 * (Rmt_graph.Graph.num_nodes g + Rmt_graph.Graph.num_edges g)
      in
      check
        (Printf.sprintf "%s: %.0f words <= 10(|V|+|E|) = %d" name used bound)
        true
        (used <= float_of_int bound))
    [
      ("layered 6x8", fun () -> Rmt_graph.Generators.layered ~width:6 ~depth:8);
      ("grid 10x10", fun () -> Rmt_graph.Generators.grid 10 10);
    ]

let checked_in_instances () =
  let dir = "../../instances" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rmt")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Codec.of_file (Filename.concat dir f) with
         | Ok inst -> inst
         | Error e -> failwith (Printf.sprintf "cannot load %s: %s" f e))

(* Over instances/*.rmt under the own and the ad hoc view, Cut.update
   given the fresh verdict and given the same verdict stripped of its
   witness takes both of its paths: some standing witness is reused, some
   search is re-run. *)
let test_update_paths_on_instances () =
  let paths =
    List.concat_map
      (fun (inst : Instance.t) ->
        List.concat_map
          (fun inst ->
            let rmt = Cut.find_rmt_cut inst in
            List.map
              (fun prev -> snd (Cut.update ~prev inst))
              [ rmt; { rmt with cut_found = None } ])
          [ inst; Instance.with_view inst (View.ad_hoc inst.graph) ])
      (checked_in_instances ())
  in
  check "update reused a witness" true (List.mem `Witness_reused paths);
  check "update re-searched" true (List.mem `Researched paths)

let () =
  Alcotest.run "incremental"
    [
      ( "unit",
        [
          Alcotest.test_case "service stats" `Quick test_service_stats;
          Alcotest.test_case "replay protocol" `Quick test_protocol_roundtrip;
          Alcotest.test_case "edgeless delta stream" `Quick
            test_stream_edgeless;
          Alcotest.test_case "allocation bounds" `Quick test_allocation_bounds;
          Alcotest.test_case "generator allocation" `Quick
            test_generator_allocation;
          Alcotest.test_case "update paths on instances" `Quick
            test_update_paths_on_instances;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
