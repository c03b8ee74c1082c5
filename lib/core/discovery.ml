open Rmt_base
open Rmt_graph
open Rmt_knowledge
open Rmt_net

type db = {
  observer : int;
  versions : (int, Rmt_pka.report list) Hashtbl.t;
}

(* Observer-side collection: same trail checks as the RMT-PKA receiver. *)
let record db ~src (m : Rmt_pka.msg) =
  if Flood.trail_ok ~self:db.observer ~src m.trail then
    match (m.payload, m.trail) with
    | Rmt_pka.Info r, o :: _
      when o = r.origin && r.origin <> db.observer
           && Graph.mem_node r.origin r.gamma ->
      let known = Option.value (Hashtbl.find_opt db.versions r.origin) ~default:[] in
      if
        not
          (List.exists
             (fun r' ->
               Graph.equal r'.Rmt_pka.gamma r.gamma
               && Rmt_adversary.Structure.equal r'.zeta r.zeta)
             known)
      then Hashtbl.replace db.versions r.origin (r :: known)
    | _ -> ()

type state =
  | Observer
  | Relay of int

let observe ?(adversary = Engine.no_adversary) (inst : Instance.t) ~observer =
  if not (Graph.mem_node observer inst.graph) then
    invalid_arg "Discovery.observe: observer not in the graph";
  let g = inst.graph in
  let db = { observer; versions = Hashtbl.create 16 } in
  let own v =
    Rmt_pka.report ~origin:v ~gamma:(Instance.local_view inst v)
      ~zeta:(Instance.local_structure inst v)
  in
  Hashtbl.replace db.versions observer [ own observer ];
  let init v =
    if v = observer then (Observer, [])
    else (Relay v, Flood.originate g v (Rmt_pka.Info (own v)))
  in
  let step _v st ~round:_ ~inbox =
    match st with
    | Observer ->
      List.iter (fun (src, m) -> record db ~src m) inbox;
      (st, [])
    | Relay self -> (st, Flood.relay g self ~inbox)
  in
  let auto = Engine.{ init; step; decision = (fun _ -> None) } in
  ignore (Engine.run ~graph:g ~adversary auto);
  db

let conflicted db =
  Hashtbl.fold
    (fun v versions acc ->
      if List.length versions > 1 then Nodeset.add v acc else acc)
    db.versions Nodeset.empty

let clean_reports db =
  Hashtbl.fold
    (fun _ versions acc ->
      match versions with [ r ] -> r :: acc | _ -> acc)
    db.versions []
  |> List.sort (fun (a : Rmt_pka.report) (b : Rmt_pka.report) ->
         Int.compare a.origin b.origin)

let reported_nodes db =
  Hashtbl.fold (fun v _ acc -> Nodeset.add v acc) db.versions Nodeset.empty

let claimed db =
  Graph.union_all
    (List.map (fun (r : Rmt_pka.report) -> r.gamma) (clean_reports db))

let confirmed db =
  let reports = clean_reports db in
  let gamma_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (r : Rmt_pka.report) -> Hashtbl.replace tbl r.origin r.gamma) reports;
    tbl
  in
  let has_edge u v =
    match Hashtbl.find_opt gamma_of u with
    | Some gamma -> Graph.mem_edge u v gamma
    | None -> false
  in
  (* a node enters the confirmed graph only through a confirmed incident
     edge (a lone self-report could be a phantom), except the observer *)
  List.fold_left
    (fun acc (r : Rmt_pka.report) ->
      Nodeset.fold
        (fun u acc ->
          (* r.origin claims the edge; confirmed if u claims it back *)
          if has_edge u r.origin then Graph.add_edge r.origin u acc else acc)
        (Graph.neighbors r.origin r.gamma)
        acc)
    (Graph.add_node db.observer Graph.empty)
    reports

type accuracy = {
  true_edges : int;
  confirmed_true : int;
  confirmed_false : int;
  phantom_nodes : int;
}

let score (inst : Instance.t) db =
  let real = inst.graph in
  let conf = confirmed db in
  let confirmed_true, confirmed_false =
    List.fold_left
      (fun (t, f) (u, v) ->
        if Graph.mem_edge u v real then (t + 1, f) else (t, f + 1))
      (0, 0) (Graph.edges conf)
  in
  {
    true_edges = Graph.num_edges real;
    confirmed_true;
    confirmed_false;
    phantom_nodes =
      Nodeset.size (Nodeset.diff (reported_nodes db) (Graph.nodes real));
  }
