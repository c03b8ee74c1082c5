open Rmt_base
open Rmt_graph
open Rmt_adversary
open Rmt_net

type msg = int Flood.msg

type recv = {
  self : int;
  dealer : int;
  structure : Structure.t;
  (* x ↦ interiors of the D–R paths that delivered x *)
  paths : (int, Nodeset.t list ref) Hashtbl.t;
  mutable decided : int option;
}

type state =
  | Dealer_done
  | Relay of int
  | Receiver of recv

let decision = function
  | Receiver r -> r.decided
  | Dealer_done | Relay _ -> None

(* P_x is uncoverable iff every maximal admissible set misses the interior
   of at least one x-carrying path. *)
let uncoverable structure interiors =
  interiors <> []
  && List.for_all
       (fun m -> List.exists (fun i -> Nodeset.disjoint i m) interiors)
       (Structure.maximal_sets structure)

let try_decide rs =
  if rs.decided = None then begin
    let xs =
      Hashtbl.fold (fun x _ acc -> x :: acc) rs.paths []
      |> List.sort Int.compare
    in
    List.iter
      (fun x ->
        if rs.decided = None && uncoverable rs.structure !(Hashtbl.find rs.paths x)
        then rs.decided <- Some x)
      xs
  end

let ingest rs ~src (m : msg) =
  if Flood.trail_ok ~self:rs.self ~src m.trail then
    match m.trail with
    | d :: _ when d = rs.dealer ->
      let interior =
        Nodeset.of_list
          (List.filter (fun v -> v <> rs.dealer) m.trail)
      in
      let cur =
        match Hashtbl.find_opt rs.paths m.payload with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace rs.paths m.payload l;
          l
      in
      if not (List.exists (Nodeset.equal interior) !cur) then
        cur := interior :: !cur
    | _ -> ()

let automaton g ~structure ~dealer ~receiver ~x_dealer =
  let init v =
    if v = dealer then (Dealer_done, Flood.originate g v x_dealer)
    else if v = receiver then
      ( Receiver
          {
            self = v;
            dealer;
            structure;
            paths = Hashtbl.create 4;
            decided = None;
          },
        [] )
    else (Relay v, [])
  in
  let step _v st ~round:_ ~inbox =
    match st with
    | Dealer_done -> (st, [])
    | Relay self -> (st, Flood.relay g self ~inbox)
    | Receiver rs ->
      List.iter (fun (src, m) -> ingest rs ~src m) inbox;
      try_decide rs;
      (st, [])
  in
  Engine.{ init; step; decision }

let solvable g ~structure ~dealer ~receiver =
  (* admissible sets may contain the receiver; by monotonicity their
     receiver-free subsets are admissible too, and those are the candidate
     cut halves *)
  let ms =
    List.map (Nodeset.remove receiver) (Structure.maximal_sets structure)
  in
  not
    (List.exists
       (fun z1 ->
         List.exists
           (fun z2 ->
             Connectivity.is_cut g dealer receiver (Nodeset.union z1 z2))
           ms)
       ms)

let msg_size (m : msg) = 1 + List.length m.trail

let run ?(adversary = Engine.no_adversary) g ~structure ~dealer ~receiver
    ~x_dealer =
  let auto = automaton g ~structure ~dealer ~receiver ~x_dealer in
  Engine.result_of ~receiver ~x_dealer
    (Engine.run ~size_of:msg_size
       ~stop_when:(fun dec -> dec receiver <> None)
       ~graph:g ~adversary auto)
