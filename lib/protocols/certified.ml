open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_net

type 'p body =
  | Load of 'p
  | Echo of int
  | Tick

type 'p msg = 'p body Flood.msg

(* Dedup keys: a flooded fact's interned id paired with the trail it
   arrived on.  Hashed as a fold over ints — no polymorphic hash. *)
module Seen = Hashtbl.Make (struct
  type t = int * int list

  let equal (a, ta) (b, tb) = Int.equal a b && List.equal Int.equal ta tb
  let hash (id, trail) = List.fold_left (fun h x -> (h * 31) + x) id trail
end)

(* How many recently keyed payload objects a node remembers.  Relays
   forward the originator's payload object, so every honest copy after
   the first is a hit; a miss only costs one [key] call. *)
let recent_cap = 32

type 'p state = {
  self : int;
  seen : unit Seen.t;
  ids : (string, int) Hashtbl.t;
      (** canonical serialization -> interned id (>= 0); one entry per
          distinct fact, so never larger than [seen] *)
  recent : ('p * int) option array;
      (** ring of the last [recent_cap] payload objects keyed, with
          their ids; matched by physical identity *)
  mutable recent_next : int;
  mutable cur_round : int;
  mutable evidence : (int * 'p Flood.msg) list;
      (** receiver-side: deduplicated [Load] arrivals, newest first *)
  mutable evidence_count : int;  (** [List.length evidence] *)
  mutable echoes : Nodeset.t;
  (* decision-side replay memo; versioned by the (monotone) evidence and
     echo counts so the exponential inner search runs once per new fact,
     not once per polled round *)
  mutable memo_evidence : int;
  mutable memo_echoes : int;
  mutable memo_value : int option;
  mutable memo_truncated : bool;
}

let quorum structure echoes =
  let missing = Nodeset.diff (Structure.ground structure) echoes in
  (* a complete echo set certifies trivially — Structure.mem would
     reject the empty set under an empty adversary family *)
  Nodeset.is_empty missing || Structure.mem missing structure

let truncated st = st.memo_truncated

let echo_set st = st.echoes

let evidence_count st = st.evidence_count

let intern st s =
  match Hashtbl.find_opt st.ids s with
  | Some id -> id
  | None ->
    let id = Hashtbl.length st.ids in
    Hashtbl.replace st.ids s id;
    id

(* The id of [Load p]: physically equal payloads have equal keys, so a
   remembered object skips [key] altogether. *)
let load_id st ~key p =
  let rec scan i =
    if i >= recent_cap then None
    else
      match st.recent.(i) with
      | Some (q, id) when q == p -> Some id
      | Some _ -> scan (i + 1)
      | None -> None (* the ring fills in index order *)
  in
  match scan 0 with
  | Some id -> id
  | None ->
    let id = intern st ("L:" ^ key p) in
    st.recent.(st.recent_next) <- Some (p, id);
    st.recent_next <- (st.recent_next + 1) mod recent_cap;
    id

(* A flooded body's fact id.  [Echo o] needs no serialization: [lnot o]
   is negative for every node id, so it never meets an interned id; a
   (forged) negative origin goes through the table like any other fact.
   [Tick] never reaches dedup. *)
let body_id st ~key body =
  match body with
  | Load p -> load_id st ~key p
  | Echo origin when origin >= 0 -> lnot origin
  | Echo origin -> intern st ("E:" ^ string_of_int origin)
  | Tick -> intern st "T"

let make ~graph ~receiver ~structure ~envelope ~inject_value ~inject_report
    ~key ~inner ~inner_truncated =
  let commit =
    Envelope.commit_round envelope ~num_nodes:(Graph.num_nodes graph)
  in
  (* Every flooded message goes out in [drop_budget + 1] same-round
     copies per edge: a conforming scheduler cannot silence a hop.  The
     [Envelope.slots] application stays inline in the fold — the lint
     model recognizes it and caps the send multiplicity at the pinned
     [max_drop_budget + 1]. *)
  let emit v body acc =
    let m = { Flood.payload = body; trail = [ v ] } in
    Nodeset.fold
      (fun u acc ->
        List.fold_left
          (fun acc () -> { Engine.dst = u; payload = m } :: acc)
          acc
          (Envelope.slots envelope))
      (Graph.neighbors v graph)
      acc
  in
  (* one extended trail per forwarded message, shared by every copy *)
  let relay v (m : 'p msg) acc =
    let m = { m with Flood.trail = m.Flood.trail @ [ v ] } in
    Nodeset.fold
      (fun u acc ->
        List.fold_left
          (fun acc () -> { Engine.dst = u; payload = m } :: acc)
          acc
          (Envelope.slots envelope))
      (Graph.neighbors v graph)
      acc
  in
  let init v =
    let st =
      {
        self = v;
        seen = Seen.create 64;
        ids = Hashtbl.create 16;
        recent = Array.make recent_cap None;
        recent_next = 0;
        cur_round = 0;
        evidence = [];
        evidence_count = 0;
        (* the receiver's own echo never transits the network *)
        echoes = (if v = receiver then Nodeset.add v Nodeset.empty else Nodeset.empty);
        memo_evidence = -1;
        memo_echoes = -1;
        memo_value = None;
        memo_truncated = false;
      }
    in
    let acc = [] in
    let acc =
      match inject_value v with None -> acc | Some p -> emit v (Load p) acc
    in
    let acc =
      match inject_report v with None -> acc | Some p -> emit v (Load p) acc
    in
    let acc = emit v (Echo v) acc in
    (* The receiver opens a tick ping-pong with one neighbor: per-round
       backends quiesce when no messages are in flight, and the commit
       round is far past the flooding horizon. *)
    let acc =
      if v = receiver then
        match Nodeset.min_elt_opt (Graph.neighbors v graph) with
        | Some u ->
          { Engine.dst = u; payload = { Flood.payload = Tick; trail = [ v ] } }
          :: acc
        | None -> acc
      else acc
    in
    (st, acc)
  in
  let step v st ~round ~inbox =
    if round > st.cur_round then st.cur_round <- round;
    let out =
      List.fold_left
        (fun acc (src, (m : 'p msg)) ->
          match m.Flood.payload with
          | Tick ->
            (* 1:1 ping-pong; stops shortly after commit so runs drain.
               Reply only along real edges (honest sends are
               neighbor-restricted; a corrupted sender may not be one). *)
            if round <= commit + 2 && Nodeset.mem src (Graph.neighbors v graph)
            then
              {
                Engine.dst = src;
                payload = { Flood.payload = Tick; trail = [ v ] };
              }
              :: acc
            else acc
          | Load _ | Echo _ ->
            if not (Flood.trail_ok ~self:v ~src m.Flood.trail) then acc
            else begin
              let k = (body_id st ~key m.Flood.payload, m.Flood.trail) in
              if Seen.mem st.seen k then acc
              else begin
                Seen.replace st.seen k ();
                (if v = receiver then
                   match m.Flood.payload with
                   | Load p ->
                     st.evidence <-
                       (src, { Flood.payload = p; trail = m.Flood.trail })
                       :: st.evidence;
                     st.evidence_count <- st.evidence_count + 1
                   | Echo origin -> st.echoes <- Nodeset.add origin st.echoes
                   | Tick -> ());
                relay v m acc
              end
            end)
        [] inbox
    in
    (st, out)
  in
  let decision st =
    if st.self <> receiver || st.cur_round < commit then None
    else if not (quorum structure st.echoes) then None
    else begin
      let ev = st.evidence_count in
      let ec = Nodeset.size st.echoes in
      if
        not
          (Int.equal ev st.memo_evidence && Int.equal ec st.memo_echoes)
      then begin
        st.memo_evidence <- ev;
        st.memo_echoes <- ec;
        (* Synchronous replay: a message whose trail has length [k] is
           delivered in round [k] of a synchronous execution, so feeding
           the evidence grouped by trail length reconstructs — round for
           round — the inner receiver's view of the synchronous run that
           delivered exactly these messages.  The commit gate guarantees
           every honest message is present, so the reconstruction is a
           legal synchronous execution (the adversary simply withheld
           whatever is absent) and the inner decision inherits Theorem
           4's safety.  Stopping at the first decision also restores the
           synchronous protocol's earliest-prefix decision discipline:
           late forged conflicts cannot retroactively poison it. *)
        let horizon =
          List.fold_left
            (fun acc (_, m) -> max acc (List.length m.Flood.trail))
            0 st.evidence
        in
        (* round [k]'s inbox, oldest arrival first: consing from the
           newest-first evidence list buckets it in one pass *)
        let inboxes = Array.make (horizon + 1) [] in
        List.iter
          (fun ((_, m) as e) ->
            let k = List.length m.Flood.trail in
            inboxes.(k) <- e :: inboxes.(k))
          st.evidence;
        let rec replay ist k =
          if k > horizon || Option.is_some (inner.Engine.decision ist) then
            ist
          else begin
            let ist, _ =
              inner.Engine.step st.self ist ~round:k ~inbox:inboxes.(k)
            in
            replay ist (k + 1)
          end
        in
        let ist, _ = inner.Engine.init st.self in
        let ist = replay ist 1 in
        st.memo_value <- inner.Engine.decision ist;
        st.memo_truncated <- inner_truncated ist
      end;
      st.memo_value
    end
  in
  { Engine.init; step; decision }

(* ---------- Certified RMT-PKA ---------- *)

type pka_msg = Rmt_core.Rmt_pka.payload msg

let structure_sig z =
  Structure.maximal_sets z
  |> List.map (fun s ->
         String.concat "." (List.map string_of_int (Nodeset.elements s)))
  |> String.concat "|"

let pka_key (p : Rmt_core.Rmt_pka.payload) =
  match p with
  | Value x -> "V:" ^ string_of_int x
  | Info r ->
    Printf.sprintf "I:%d:%s:%s" r.Rmt_core.Rmt_pka.origin
      (Graph.to_string r.gamma) (structure_sig r.zeta)

let pka (inst : Rmt_knowledge.Instance.t) ~x_dealer =
  let open Rmt_knowledge in
  let inner = Rmt_core.Rmt_pka.automaton inst ~x_dealer in
  let report v =
    Rmt_core.Rmt_pka.report ~origin:v ~gamma:(Instance.local_view inst v)
      ~zeta:(Instance.local_structure inst v)
  in
  make ~graph:inst.graph ~receiver:inst.receiver ~structure:inst.structure
    ~envelope:Envelope.default
    ~inject_value:(fun v ->
      if v = inst.dealer then Some (Rmt_core.Rmt_pka.Value x_dealer) else None)
    ~inject_report:(fun v ->
      if v = inst.receiver then None
      else Some (Rmt_core.Rmt_pka.Info (report v)))
    ~key:pka_key ~inner ~inner_truncated:Rmt_core.Rmt_pka.search_truncated

let pka_msg_size (m : pka_msg) =
  match m.Flood.payload with
  | Load p ->
    1 + Rmt_core.Rmt_pka.msg_size { Flood.payload = p; trail = m.Flood.trail }
  | Echo _ | Tick -> 1 + List.length m.Flood.trail

(* ---------- Certified PPA ---------- *)

type ppa_msg = int msg

let ppa g ~structure ~dealer ~receiver ~x_dealer =
  let inner = Ppa.automaton g ~structure ~dealer ~receiver ~x_dealer in
  make ~graph:g ~receiver ~structure ~envelope:Envelope.default
    ~inject_value:(fun v -> if v = dealer then Some x_dealer else None)
    ~inject_report:(fun _ -> None)
    ~key:string_of_int ~inner
    ~inner_truncated:(fun _ -> false)

let ppa_msg_size (m : ppa_msg) = 1 + List.length m.Flood.trail
