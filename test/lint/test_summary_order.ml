(* Order-independence of the summary inference engine (qcheck).

   Two layers, matching the two places order could leak in:

   - {!Fixpoint.scc}/{!Fixpoint.solve} on random digraphs: shuffling
     the node list and every successor list must not change the
     condensation or the solved least fixpoint (here: reachability
     counts, a monotone transfer with real cycles);
   - {!Summary.infer} over the real fixture library: shuffling the
     unit-summary list fed to {!Callgraph.build} must produce an
     identical store — same per-function fingerprints, same store
     fingerprint.  This is the property the summary cache relies on
     (the cache key is a digest over sorted unit paths, so a hit may
     replay effects inferred from a differently-ordered walk). *)

open Rmt_lint

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

(* Deterministic shuffle driven by qcheck-generated swap indices — the
   test stays reproducible under qcheck's own seed reporting. *)
let shuffle swaps xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n > 1 then
    List.iter
      (fun (i, j) ->
        let i = i mod n and j = j mod n in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t)
      swaps;
  Array.to_list a

(* --- layer 1: random digraphs ------------------------------------- *)

let node i = Printf.sprintf "n%d" i

let graph_case =
  QCheck.(
    pair
      (list_of_size (Gen.int_range 0 30) (pair (int_bound 9) (int_bound 9)))
      (list_of_size (Gen.int_range 0 12) (pair small_nat small_nat)))

let solve_reach nodes succs =
  Fixpoint.solve ~nodes ~succs
    ~equal:(fun a b -> a = b)
    ~init:(fun _ -> 1)
    ~transfer:(fun ~get n ->
      List.fold_left (fun acc s -> min 1000 (acc + get s)) 1 (succs n))

let fixpoint_test =
  QCheck.Test.make ~count:200
    ~name:"Fixpoint.scc/solve are input-order independent" graph_case
    (fun (edges, swaps) ->
      let nodes = List.init 10 node in
      let succs_tbl = Hashtbl.create 16 in
      List.iter
        (fun (i, j) ->
          let prev =
            Option.value (Hashtbl.find_opt succs_tbl (node i)) ~default:[]
          in
          Hashtbl.replace succs_tbl (node i) (node j :: prev))
        edges;
      let succs n = Option.value (Hashtbl.find_opt succs_tbl n) ~default:[] in
      let shuffled_nodes = shuffle swaps nodes in
      let shuffled_succs n = shuffle swaps (succs n) in
      let ref_scc = Fixpoint.scc ~nodes ~succs in
      let shuf_scc = Fixpoint.scc ~nodes:shuffled_nodes ~succs:shuffled_succs in
      let ref_fix = solve_reach nodes succs in
      let shuf_fix = solve_reach shuffled_nodes shuffled_succs in
      ref_scc = shuf_scc && List.for_all (fun n -> ref_fix n = shuf_fix n) nodes)

(* --- layer 2: the real fixture library ----------------------------- *)

let units =
  match Cmt_loader.scan ~build_dir:"../.." ~dirs:[ "test/lint/fixtures" ] with
  | Ok us -> us
  | Error e -> fail "fixture scan failed: %s" e

let summaries =
  List.map
    (fun (u : Cmt_loader.unit_info) ->
      Callgraph.summarize ~source:u.Cmt_loader.source u.Cmt_loader.structure)
    units

let store_of summaries = Summary.infer (Callgraph.build summaries)
let reference = store_of summaries
let reference_fp = Summary.store_fingerprint reference

let fingerprints store =
  Callgraph.functions (Summary.graph store)
  |> List.map (fun (f : Callgraph.fn_summary) ->
         match Summary.find store f.fn_name with
         | Some e -> (f.fn_name, Summary.fingerprint e)
         | None -> (f.fn_name, "-"))
  |> List.sort compare

let reference_fps = fingerprints reference

let infer_test =
  QCheck.Test.make ~count:25
    ~name:"Summary.infer is unit-order independent"
    QCheck.(list_of_size (Gen.int_range 1 20) (pair small_nat small_nat))
    (fun swaps ->
      let store = store_of (shuffle swaps summaries) in
      String.equal (Summary.store_fingerprint store) reference_fp
      && fingerprints store = reference_fps)

let () =
  QCheck.Test.check_exn fixpoint_test;
  QCheck.Test.check_exn infer_test;
  Printf.printf
    "summary order: fixpoints and %d-unit store are order-independent (%s)\n"
    (List.length summaries) reference_fp
