open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_knowledge
open Rmt_net

type report = {
  origin : int;
  gamma : Graph.t;
  zeta : Structure.t;
  size : int;
}

(* The encoding-size estimate of a type-2 payload: a tag, the claimed
   view's nodes and edge endpoints, and per maximal set a length and its
   members.  Computed once here; every copy of the report that floods
   through the network is the same object. *)
let report ~origin ~gamma ~zeta =
  let size =
    1 + Graph.num_nodes gamma
    + (2 * Graph.num_edges gamma)
    + List.fold_left
        (fun acc s -> acc + 1 + Nodeset.size s)
        0
        (Structure.maximal_sets zeta)
  in
  { origin; gamma; zeta; size }

(* Relays forward the originator's object, so most comparisons are
   physical; [size] is a function of the other fields, so a differing size
   is a cheap reject. *)
let report_equal r1 r2 =
  r1 == r2
  || r1.origin = r2.origin
     && r1.size = r2.size
     && Graph.equal r1.gamma r2.gamma
     && Structure.equal r1.zeta r2.zeta

type payload =
  | Value of int
  | Info of report

let payload_equal p q =
  match (p, q) with
  | Value x, Value y -> Int.equal x y
  | Info r1, Info r2 -> report_equal r1 r2
  | Value _, Info _ | Info _, Value _ -> false

type msg = payload Flood.msg

let msg_size (m : msg) =
  List.length m.Flood.trail
  + match m.Flood.payload with Value _ -> 1 | Info r -> r.size

type budgets = {
  path_budget : int;
  subset_budget : int;
  cover_budget : int;
  conflict_branches : int;
}

let default_budgets =
  {
    path_budget = 100_000;
    subset_budget = 4_000;
    cover_budget = 100_000;
    conflict_branches = 64;
  }

(* ------------------------------------------------------------------ *)
(* Receiver state                                                      *)
(* ------------------------------------------------------------------ *)

(* Hash tables keyed by node sets, with Nodeset's own equality and hash. *)
module Set_tbl = Hashtbl.Make (struct
  type t = Nodeset.t

  let equal = Nodeset.equal
  let hash = Nodeset.hash
end)

(* Claimed D–R paths, with int-list equality. *)
module Path_tbl = Hashtbl.Make (struct
  type t = Paths.path

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h v -> (h * 31) + v) 0
end)

(* A distinct claimed report together with every propagation trail it
   arrived with.  Trails matter: a forged report's trail necessarily
   contains a corrupted node (the relay tail-check), so a version carrying
   a trail that stays inside an all-honest region is necessarily genuine —
   the receiver exploits this in the adversary-cover search.  That search
   only asks whether a trail lies inside a node set, so each trail is kept
   as its node set.  [vid] is a receiver-local id in arrival order (the
   receiver's own report is 0): the ids of the versions a message set
   selects key the receiver's work memo ([gm_entry_of]). *)
type version = {
  vid : int;
  rep : report;
  mutable trail_sets : Nodeset.t list;
}

type cover = Covered | Uncovered | Unknown

(* One fullness check of G_M for a candidate value: the first D–R path of
   G_M that the value's type-1 messages lack ([None] when there is none
   within [path_budget]), whether that enumeration completed, and the
   members other than D and R whose removal from V_M destroys the path. *)
type fullness = {
  first_missing : Paths.path option;
  complete : bool;
  candidates : Nodeset.t;
}

(* G_M for one selection of versions, whether it has a D–R path at all,
   the last fullness check per candidate value, and the last
   adversary-cover verdict, stamped with the search ([recv.epoch]) that
   computed it. *)
type gm_entry = {
  gm : Graph.t;
  dr_connected : bool Lazy.t;
  mutable missing : (int * fullness) list;
  mutable cover : cover;
  mutable cover_epoch : int;
}

type recv = {
  self : int;
  dealer : int;
  own : version;
  budgets : budgets;
  (* x ↦ set of claimed D–R paths (trail with the receiver appended) *)
  values : (int, unit Path_tbl.t) Hashtbl.t;
  (* node ↦ distinct reports received about it, with their trails *)
  reports : (int, version list) Hashtbl.t;
  mutable next_vid : int;
  (* selected version ids ↦ G_M and what is known of it (see
     [gm_entry_of]) *)
  gm_memo : gm_entry Set_tbl.t;
  (* decision searches run so far *)
  mutable epoch : int;
  mutable decided : int option;
  (* V_M of a full-set decision with the reports M selects, by node;
     empty until then, and after a dealer-rule decision *)
  mutable evidence : (int * report) list;
  mutable truncated : bool;
  mutable dirty : bool;
}

type state =
  | Dealer_done
  | Relay of int
  | Receiver of recv

let decision = function
  | Receiver r -> r.decided
  | Dealer_done | Relay _ -> None

let search_truncated = function
  | Receiver r -> r.truncated
  | Dealer_done | Relay _ -> false

(* ------------------------------------------------------------------ *)
(* Receiver: message ingestion                                         *)
(* ------------------------------------------------------------------ *)

let record_value rs x full_path =
  let tbl =
    match Hashtbl.find_opt rs.values x with
    | Some t -> t
    | None ->
      let t = Path_tbl.create 16 in
      Hashtbl.replace rs.values x t;
      t
  in
  if not (Path_tbl.mem tbl full_path) then begin
    Path_tbl.replace tbl full_path ();
    rs.dirty <- true
  end

let report_plausible r =
  Graph.mem_node r.origin r.gamma
  && Nodeset.subset (Structure.ground r.zeta) (Graph.nodes r.gamma)

let record_report rs r trail =
  (* the receiver trusts only itself about itself *)
  if r.origin <> rs.self && report_plausible r then begin
    let known =
      match Hashtbl.find_opt rs.reports r.origin with
      | Some l -> l
      | None -> []
    in
    let trail_set = Nodeset.of_list trail in
    match List.find_opt (fun v -> report_equal v.rep r) known with
    | Some v ->
      (* a trail over the same nodes adds nothing the search can use *)
      if not (List.exists (Nodeset.equal trail_set) v.trail_sets) then begin
        v.trail_sets <- trail_set :: v.trail_sets;
        rs.dirty <- true
      end
    | None ->
      let v = { vid = rs.next_vid; rep = r; trail_sets = [ trail_set ] } in
      rs.next_vid <- rs.next_vid + 1;
      Hashtbl.replace rs.reports r.origin (v :: known);
      rs.dirty <- true
  end

let ingest rs ~src (m : msg) =
  if Flood.trail_ok ~self:rs.self ~src m.trail then
    match m.payload with
    | Value x ->
      (* only trails that start at the dealer can be dealer trails *)
      (match m.trail with
       | d :: _ when d = rs.dealer -> record_value rs x (m.trail @ [ rs.self ])
       | _ -> ())
    | Info r ->
      (match m.trail with
       | o :: _ when o = r.origin -> record_report rs r m.trail
       | _ -> ())

(* ------------------------------------------------------------------ *)
(* Receiver: decision subroutine                                       *)
(* ------------------------------------------------------------------ *)

(* Conflict branches: the adversary may have delivered several versions of
   some node's type-2 report; a valid M picks at most one per node.  We
   enumerate assignments (node ↦ version), capped. *)
let conflict_branches rs =
  let entries =
    Hashtbl.fold (fun v versions acc -> (v, versions) :: acc) rs.reports []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let cap = rs.budgets.conflict_branches in
  let branches = ref [ [] ] in
  let truncated = ref false in
  List.iter
    (fun (v, versions) ->
      let expanded =
        List.concat_map
          (fun branch -> List.map (fun ver -> (v, ver) :: branch) versions)
          !branches
      in
      if List.length expanded > cap then begin
        truncated := true;
        branches := Util.list_take cap expanded
      end
      else branches := expanded)
    entries;
  if !truncated then rs.truncated <- true;
  !branches

(* Undirected edges as hash keys, smaller endpoint first. *)
module Edge_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash ((a, b) : t) = (a * 65599) + b
end)

let edge_key (a : int) b = if a < b then (a, b) else (b, a)

(* One conflict branch: node ↦ selected version, the receiver's own
   report included, and — built on first use, once per branch per search —
   the index from each claimed edge to the members whose selected view
   reports it. *)
type branch = {
  info : (int, version) Hashtbl.t;
  reporters : Nodeset.t Edge_tbl.t Lazy.t;
}

let branch_of selection =
  let info = Hashtbl.create 16 in
  List.iter (fun (v, ver) -> Hashtbl.replace info v ver) selection;
  let reporters =
    lazy
      (let idx = Edge_tbl.create 64 in
       Hashtbl.iter
         (fun w ver ->
           let gamma = ver.rep.gamma in
           Nodeset.iter
             (fun a ->
               Nodeset.iter
                 (fun b ->
                   if a < b then
                     let prev =
                       Option.value
                         (Edge_tbl.find_opt idx (a, b))
                         ~default:Nodeset.empty
                     in
                     Edge_tbl.replace idx (a, b) (Nodeset.add w prev))
                 (Graph.neighbors a gamma))
             (Graph.nodes gamma))
         info;
       idx)
  in
  { info; reporters }

let build_gm br vset =
  Graph.induced_union vset
    (Nodeset.fold
       (fun v acc ->
         match Hashtbl.find_opt br.info v with
         | Some ver -> ver.rep.gamma :: acc
         | None -> acc)
       vset [])

let edge_reporters br vset a b =
  match Edge_tbl.find_opt (Lazy.force br.reporters) (edge_key a b) with
  | Some ws -> Nodeset.inter vset ws
  | None -> Nodeset.empty

(* G_M of [vset] = V_M ∖ {w}, from [parent], the G_M of V_M.  Every
   member is in its own view (ingestion drops reports that are not), so
   the nodes of G_M are V_M and removing [w] removes one node.  An edge
   between two remaining members survives iff some remaining member
   reports it, so besides [w]'s incident edges exactly the edges of γ(w)
   that no other member of [vset] reports are lost. *)
let derive_gm br vset parent w =
  let gamma = (Hashtbl.find br.info w).rep.gamma in
  let lost =
    Nodeset.fold
      (fun a acc ->
        Nodeset.fold
          (fun b acc ->
            if a < b && Nodeset.is_empty (edge_reporters br vset a b) then
              (a, b) :: acc
            else acc)
          (Nodeset.inter (Graph.neighbors a gamma) vset)
          acc)
      (Nodeset.inter (Graph.nodes gamma) vset)
      []
  in
  Graph.remove_edges lost (Graph.remove_node w parent)

(* The two constructions of G_M, over a selection of one report per
   member. *)
let branch_of_reports reports =
  branch_of
    (List.mapi
       (fun vid r -> (r.origin, { vid; rep = r; trail_sets = [] }))
       reports)

let claimed_graph reports vset = build_gm (branch_of_reports reports) vset

let claimed_graph_without reports ~parent vset w =
  derive_gm (branch_of_reports reports) (Nodeset.remove w vset) parent w

(* Adversary cover search (Definition 6) on the claimed graph: enumerate
   connected B ∋ R avoiding the dealer's closed neighborhood; C = N(B);
   covered iff C ∩ V(γ(B)) ∈ 𝒵_B.

   Which reports may the receiver use for V(γ(B)) and 𝒵_B?  Not the ones
   selected into M: the adversary can relay a stale or forged report of an
   honest B-member through corrupted relays and erase the cover that the
   safety proof (Thm 4) relies on.  The sound rule — and the reason type-2
   messages carry propagation trails at all — is to use exactly the report
   versions that arrived with at least one trail lying entirely inside B:
   a forged trail necessarily contains a corrupted node (footnote 1), and
   the candidate B of the safety argument is all-honest, so B-internal
   trails certify genuineness while genuine reports of B-members always
   flood to R along B-internal paths.  Two distinct B-internally-trailed
   versions of the same node prove B contains a corrupted node: such a B
   is conservatively treated as covered (this cannot block the genuine
   branch of the sufficiency argument, where every candidate B is honest
   and conflict-free).  The verdict depends on G_M and the evidence
   received, never on the candidate value. *)
let has_cover rs gm =
  if not (Graph.mem_node rs.dealer gm) then
    (* no dealer in the claimed graph: never decide on such an M *)
    Covered
  else begin
    let forbidden = Graph.closed_neighborhood rs.dealer gm in
    if Nodeset.mem rs.self forbidden then
      (* direct (claimed and type-1-corroborated) D–R edge: no cut exists *)
      Uncovered
    else begin
      let eligible b u =
        if u = rs.self then [ rs.own.rep ]
        else
          match Hashtbl.find_opt rs.reports u with
          | None -> []
          | Some versions ->
            List.filter_map
              (fun ver ->
                if List.exists (fun t -> Nodeset.subset t b) ver.trail_sets
                then Some ver.rep
                else None)
              versions
      in
      let covered = ref false in
      let outcome =
        Subset_enum.connected_supersets ~budget:rs.budgets.cover_budget gm
          ~seed:rs.self ~forbidden (fun b c ->
            let rec check vgb zetas = function
              | [] -> Joint.mem_joint (Nodeset.inter c vgb) zetas
              | u :: rest ->
                (match eligible b u with
                 | [] -> false (* no certified knowledge for u: no cover via b *)
                 | [ r ] ->
                   check
                     (Nodeset.union vgb (Graph.nodes r.gamma))
                     (r.zeta :: zetas) rest
                 | _ :: _ :: _ ->
                   (* conflicting certified versions: b provably contains a
                      corrupted node — treat as covered *)
                   true)
            in
            if
              check Nodeset.empty []
                (Nodeset.elements (Nodeset.remove rs.self b) @ [ rs.self ])
            then begin
              covered := true;
              true
            end
            else false)
      in
      if !covered then Covered else if outcome.complete then Uncovered
      else Unknown
    end
  end

(* The receiver's work memo, keyed by the ids of the versions a message
   set M selects.  Those ids fix V_M (the receiver is id 0 and every other
   member has exactly one selected version) and every report G_M is built
   from, so the key names the same G_M in every branch and every search,
   and a stored G_M is exact for good.

   The search descends from V_M to V_M ∖ {w}, so a missed entry is
   derived from its parent's G_M ([derive_gm]: drop [w], its edges and
   the edges only [w] reported); only the root, which has no parent, is
   built as the join of the selected views.  A derived G_M is the built
   one, so where an entry came from does not matter.

   What is stored about G_M stays exact across searches (rounds) because
   ingestion only ever adds: [record_value] adds D–R paths to a value and
   [record_report] adds versions and trail sets.

   - D–R connectivity: a function of G_M alone, computed on first use.
   - Fullness for value [x]: the D–R path enumeration over a fixed G_M is
     fixed, and paths only arrive.  A stored first missing path that is
     still missing is still the first, found after the same number of
     steps; a [None] (full, or no missing path within [path_budget]) stays
     [None].  Only a stored missing path that has since arrived forces a
     new check.  The path's destroyers depend on it and on the selected
     reports alone, so they are stored with it.
   - Adversary cover: the versions eligible for a given B only grow.  That
     keeps a covering B covering — a member with one eligible version keeps
     it or gains a second, and conflicting versions count as covered — and
     the B enumeration over the same G_M is the same, so a later search
     meets a cover at the same or an earlier index, still within
     [cover_budget].  [Covered] is therefore kept; [Uncovered] and
     [Unknown] can flip as evidence arrives and hold for one search
     ([rs.epoch]) only.

   The memo is a cache, so it is capped: past [gm_memo_cap] entries it is
   flushed, and a flushed entry is recomputed to the same answers. *)
let gm_memo_cap = 1 lsl 14

let gm_entry_of rs br vset ids parent =
  match Set_tbl.find_opt rs.gm_memo ids with
  | Some e -> e
  | None ->
    if Set_tbl.length rs.gm_memo >= gm_memo_cap then Set_tbl.reset rs.gm_memo;
    let gm =
      match parent with
      | Some (parent_gm, w) -> derive_gm br vset parent_gm w
      | None -> build_gm br vset
    in
    let e =
      {
        gm;
        dr_connected =
          lazy
            (Connectivity.connected_avoiding gm rs.dealer rs.self
               Nodeset.empty);
        missing = [];
        cover = Unknown;
        cover_epoch = -1;
      }
    in
    Set_tbl.replace rs.gm_memo ids e;
    e

let rec assoc_int (x : int) = function
  | [] -> None
  | (y, found) :: rest -> if y = x then Some found else assoc_int x rest

let cover_of rs e =
  match e.cover with
  | Covered -> Covered
  | (Uncovered | Unknown) as c when e.cover_epoch = rs.epoch -> c
  | Uncovered | Unknown ->
    let c = has_cover rs e.gm in
    e.cover <- c;
    e.cover_epoch <- rs.epoch;
    c

(* The nodes whose removal from V_M destroys the D–R path [q] of G_M:
   its nodes, and every reporter of one of its edges.  [q]'s ends (the
   dealer and the receiver) are in the set too; the caller drops them. *)
let rec destroyers br vset acc = function
  | a :: (b :: _ as rest) ->
    destroyers br vset
      (Nodeset.add a (Nodeset.union acc (edge_reporters br vset a b)))
      rest
  | [ b ] -> Nodeset.add b acc
  | [] -> acc

let fullness_of rs br vset e x paths_x =
  match assoc_int x e.missing with
  | Some ({ first_missing = None; _ } as f) -> f
  | Some ({ first_missing = Some q; _ } as f) when not (Path_tbl.mem paths_x q)
    ->
    f
  | Some { first_missing = Some _; _ } | None ->
    let first_missing, complete =
      Paths.find_simple_path ~budget:rs.budgets.path_budget e.gm rs.dealer
        rs.self (fun q -> not (Path_tbl.mem paths_x q))
    in
    let candidates =
      match first_missing with
      | None -> Nodeset.empty
      | Some q ->
        Nodeset.remove rs.dealer
          (Nodeset.remove rs.self (destroyers br vset Nodeset.empty q))
    in
    let f = { first_missing; complete; candidates } in
    e.missing <- (x, f) :: List.filter (fun (y, _) -> y <> x) e.missing;
    f

(* Search for a valid full message set with value [x] and no adversary
   cover, over subsets V_M of the reported nodes.  Pruning: a missing D–R
   path [q] of G_M must be destroyed in any full subset, which requires
   dropping an interior node of [q] or every reporter of one of its
   edges; we branch on all single-node candidates.  Covers are hereditary
   downward (see DESIGN.md), so only maximal full subsets need a cover
   check. *)
let try_value rs br x =
  let paths_x =
    match Hashtbl.find_opt rs.values x with
    | Some t -> t
    | None -> Path_tbl.create 1
  in
  let info = br.info in
  if not (Hashtbl.mem info rs.dealer) then false
  else begin
    let visited = Set_tbl.create 64 in
    let budget = ref rs.budgets.subset_budget in
    let vid v = (Hashtbl.find info v).vid in
    let rec explore vset ids parent =
      if Set_tbl.mem visited ids then false
      else begin
        Set_tbl.replace visited ids ();
        if !budget <= 0 then begin
          rs.truncated <- true;
          false
        end
        else begin
          decr budget;
          let entry = gm_entry_of rs br vset ids parent in
          let f = fullness_of rs br vset entry x paths_x in
          match (f.first_missing, f.complete) with
          | None, false ->
            rs.truncated <- true;
            false
          | None, true when not (Lazy.force entry.dr_connected) ->
            (* Fullness is vacuous: G_M has no D–R path at all, so M
               contains no type-1 message and determines no value.  The
               FUZZ campaign found a spam program exploiting this — prune
               every node on the forged value's trail and the cover search
               has nothing left to certify (DESIGN.md §5). *)
            false
          | None, true ->
            (* full: check for an adversary cover *)
            (match cover_of rs entry with
             | Uncovered ->
               rs.evidence <-
                 Nodeset.fold
                   (fun v acc -> (v, (Hashtbl.find info v).rep) :: acc)
                   vset []
                 |> List.rev;
               true
             | Covered -> false
             | Unknown ->
               rs.truncated <- true;
               false)
          | Some _, _ ->
            (* not full: branch on ways to destroy the missing path *)
            Nodeset.exists
              (fun w ->
                explore (Nodeset.remove w vset)
                  (Nodeset.remove (vid w) ids)
                  (Some (entry.gm, w)))
              f.candidates
        end
      end
    in
    let all, all_ids =
      Hashtbl.fold
        (fun v ver (vs, ids) -> (Nodeset.add v vs, Nodeset.add ver.vid ids))
        info (Nodeset.empty, Nodeset.empty)
    in
    explore all all_ids None
  end

(* One decision search.  Work is shared at three levels: each conflict
   branch's selection table is built once per search and serves every
   candidate value; the receiver's [gm_memo] carries G_M (each derived
   from its parent's), D–R connectivity, fullness checks with their
   destroyer sets and cover verdicts across values, branches and
   searches (rounds); and the cover check decides 𝒵_B membership locally
   ([Joint.mem_joint]) without building ⊕ joins.  The enumeration orders
   and budgets are those of the plain search, so decisions and truncation
   flags are too. *)
let try_decide rs =
  if rs.decided = None then begin
    (* dealer propagation rule *)
    (* Fold order over [rs.values] is seed-dependent; collect every
       directly-trailed value and take the smallest so ties break the
       same way on every run. *)
    let direct =
      Hashtbl.fold
        (fun x tbl acc ->
          if Path_tbl.mem tbl [ rs.dealer; rs.self ] then x :: acc else acc)
        rs.values []
      |> List.sort Int.compare
    in
    match direct with
    | x :: _ -> rs.decided <- Some x
    | [] ->
      (* full message set propagation rule *)
      let xs =
        Hashtbl.fold (fun x _ acc -> x :: acc) rs.values []
        |> List.sort Int.compare
      in
      if xs <> [] then begin
        rs.epoch <- rs.epoch + 1;
        let branches =
          List.map
            (fun selection -> branch_of ((rs.self, rs.own) :: selection))
            (conflict_branches rs)
        in
        List.iter
          (fun x ->
            if rs.decided = None then
              if List.exists (fun br -> try_value rs br x) branches then
                rs.decided <- Some x)
          xs
      end
  end

(* ------------------------------------------------------------------ *)
(* The automaton                                                       *)
(* ------------------------------------------------------------------ *)

let automaton ?(budgets = default_budgets) (inst : Instance.t) ~x_dealer =
  let g = inst.graph in
  let own_report v =
    report ~origin:v ~gamma:(Instance.local_view inst v)
      ~zeta:(Instance.local_structure inst v)
  in
  let init v =
    if v = inst.dealer then
      ( Dealer_done,
        Flood.originate g v (Value x_dealer)
        @ Flood.originate g v (Info (own_report v)) )
    else if v = inst.receiver then begin
      let rs =
        {
          self = v;
          dealer = inst.dealer;
          own = { vid = 0; rep = own_report v; trail_sets = [] };
          budgets;
          values = Hashtbl.create 4;
          reports = Hashtbl.create 16;
          next_vid = 1;
          gm_memo = Set_tbl.create 64;
          epoch = 0;
          decided = None;
          evidence = [];
          truncated = false;
          dirty = false;
        }
      in
      (Receiver rs, [])
    end
    else (Relay v, Flood.originate g v (Info (own_report v)))
  in
  let step v st ~round:_ ~inbox =
    match st with
    | Dealer_done -> (st, [])
    | Relay self -> (st, Flood.relay g self ~inbox)
    | Receiver rs ->
      List.iter (fun (src, m) -> ingest rs ~src m) inbox;
      if rs.dirty && rs.decided = None then begin
        rs.dirty <- false;
        try_decide rs
      end;
      ignore v;
      (st, [])
  in
  Engine.{ init; step; decision }

let receiver_trace st =
  match st with
  | Dealer_done -> "dealer"
  | Relay v -> Printf.sprintf "relay %d" v
  | Receiver rs ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "receiver %d: decided=%s truncated=%b\n" rs.self
         (match rs.decided with None -> "⊥" | Some x -> string_of_int x)
         rs.truncated);
    Hashtbl.iter
      (fun x tbl ->
        Buffer.add_string buf
          (Printf.sprintf "  value %d via %d path(s)\n" x (Path_tbl.length tbl)))
      rs.values;
    Buffer.add_string buf
      (Printf.sprintf "  reports about %d node(s)\n" (Hashtbl.length rs.reports));
    (match (rs.decided, rs.evidence) with
     | None, _ -> ()
     | Some _, [] -> Buffer.add_string buf "  decided by the dealer rule\n"
     | Some _, evidence ->
       Buffer.add_string buf
         (Printf.sprintf "  decided on V_M=%s\n"
            (Nodeset.to_string (Nodeset.of_list (List.map fst evidence))));
       List.iter
         (fun (v, r) ->
           Buffer.add_string buf
             (Printf.sprintf "    info %d: gamma=%s zeta=%s\n" v
                (Nodeset.to_string (Graph.nodes r.gamma))
                (Structure.to_string r.zeta)))
         evidence);
    Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* End-to-end runner                                                   *)
(* ------------------------------------------------------------------ *)

let run ?budgets ?max_messages ?(adversary = Engine.no_adversary)
    (inst : Instance.t) ~x_dealer =
  let auto = automaton ?budgets inst ~x_dealer in
  let outcome =
    Engine.run ?max_messages ~size_of:msg_size
      ~stop_when:(fun dec -> dec inst.receiver <> None)
      ~graph:inst.graph ~adversary auto
  in
  let r = Engine.result_of ~receiver:inst.receiver ~x_dealer outcome in
  let recv_truncated =
    match List.assoc_opt inst.receiver outcome.states with
    | Some st -> search_truncated st
    | None -> false
  in
  { r with truncated = r.truncated || recv_truncated }
