open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge

(* ------------------------------------------------------------------ *)
(* Candidate moves                                                     *)
(* ------------------------------------------------------------------ *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* Remove one graph node, restricting structure and view to the survivors.
   Only serializable view constructors can be rebuilt; [View.of_assignment]
   instances are left graph-intact (programs still shrink). *)
let shrink_instance (inst : Instance.t) v =
  let g = Graph.remove_node v inst.graph in
  if
    Graph.mem_node inst.dealer g
    && Graph.mem_node inst.receiver g
    && Connectivity.connected_avoiding g inst.dealer inst.receiver
         Nodeset.empty
  then
    match View.rebuild inst.view g with
    | None -> None
    | Some view ->
      let ground = Nodeset.remove v (Structure.ground inst.structure) in
      let structure = Structure.restrict ground inst.structure in
      (try
         Some
           (Instance.make ~graph:g ~structure ~view ~dealer:inst.dealer
              ~receiver:inst.receiver)
       with Invalid_argument _ -> None)
  else None

(* All single-step reductions, in a fixed order: program-level moves
   first (cheapest to evaluate, biggest semantic simplification), then
   graph surgery. *)
let candidates (inst : Instance.t) (p : Program.t) =
  let n = List.length p.Program.nodes in
  let drop_node =
    Seq.init n (fun i ->
        (inst, Program.make ~seed:p.Program.seed (drop_nth p.Program.nodes i)))
  in
  let silence_base =
    Seq.filter_map
      (fun i ->
        let np = List.nth p.Program.nodes i in
        if Program.base_equal np.Program.base Program.Silent then None
        else
          let nodes =
            List.mapi
              (fun j np' ->
                if j = i then { np' with Program.base = Program.Silent }
                else np')
              p.Program.nodes
          in
          Some (inst, Program.make ~seed:p.Program.seed nodes))
      (Seq.init n Fun.id)
  in
  let drop_inject =
    Seq.concat_map
      (fun i ->
        let np = List.nth p.Program.nodes i in
        Seq.init
          (List.length np.Program.injects)
          (fun j ->
            let nodes =
              List.mapi
                (fun k np' ->
                  if k = i then
                    { np' with Program.injects = drop_nth np.Program.injects j }
                  else np')
                p.Program.nodes
            in
            (inst, Program.make ~seed:p.Program.seed nodes)))
      (Seq.init n Fun.id)
  in
  let drop_graph_node =
    let protected =
      Nodeset.add inst.dealer
        (Nodeset.add inst.receiver (Program.corrupted p))
    in
    Graph.nodes inst.graph |> Nodeset.elements |> List.to_seq
    |> Seq.filter_map (fun v ->
           if Nodeset.mem v protected then None
           else
             Option.map (fun inst' -> (inst', p)) (shrink_instance inst v))
  in
  Seq.concat
    (List.to_seq [ drop_node; silence_base; drop_inject; drop_graph_node ])

(* ------------------------------------------------------------------ *)
(* Greedy fixpoint                                                     *)
(* ------------------------------------------------------------------ *)

let greedy ~budget ~keep ~candidates x =
  let evals = ref 0 in
  let try_keep c =
    !evals < budget
    && begin
         incr evals;
         keep c
       end
  in
  let rec fix x =
    match Seq.find try_keep (candidates x) with
    | Some x' -> fix x'
    | None -> x
  in
  fix x

let minimize ?(budget = 400) ~keep inst p =
  greedy ~budget
    ~keep:(fun (inst', p') -> keep inst' p')
    ~candidates:(fun (inst, p) -> candidates inst p)
    (inst, p)

(* ------------------------------------------------------------------ *)
(* Standard predicates                                                 *)
(* ------------------------------------------------------------------ *)

let keep_verdict protocol ~x_dealer ~verdict inst p =
  let corrupted = Program.corrupted p in
  (not (Nodeset.is_empty corrupted))
  && Instance.admissible inst corrupted
  && Campaign.reproduces ~verdict
       (Campaign.execute protocol inst ~x_dealer p)
