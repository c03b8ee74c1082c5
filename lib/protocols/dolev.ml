open Rmt_graph
open Rmt_net

type msg = int Flood.msg
(* the trail field carries the FULL route, fixed by the dealer; relays do
   not extend it — this is source routing, not flooding *)

let routes g ~dealer ~receiver =
  let rec go g acc =
    match Paths.shortest_path g dealer receiver with
    | None -> List.rev acc
    | Some p ->
      let interior =
        List.filter (fun v -> v <> dealer && v <> receiver) p
      in
      if interior = [] then
        (* the direct edge: no more node-disjoint routes can be peeled *)
        List.rev (p :: acc)
      else
        go
          (List.fold_left (fun g v -> Graph.remove_node v g) g interior)
          (p :: acc)
  in
  go g []

(* position-based forwarding: find v's predecessor and successor in the
   route *)
let rec hop_after (v : int) = function
  | a :: (b :: _ as rest) -> if a = v then Some b else hop_after v rest
  | _ -> None

let rec hop_before (v : int) = function
  | a :: (b :: _ as rest) -> if b = v then Some a else hop_before v rest
  | _ -> None

type recv = {
  num_routes : int;
  known : Paths.path list;
  votes : (Paths.path, int) Hashtbl.t;
  mutable decided : int option;
}

type state =
  | Dealer_done
  | Relay of int
  | Receiver of recv

let decision = function
  | Receiver r -> r.decided
  | Dealer_done | Relay _ -> None

let try_decide rs =
  if rs.decided = None then begin
    let counts = Hashtbl.create 4 in
    Hashtbl.iter
      (fun _ x ->
        Hashtbl.replace counts x
          (1 + Option.value (Hashtbl.find_opt counts x) ~default:0))
      rs.votes;
    Hashtbl.iter
      (fun x c -> if 2 * c > rs.num_routes then rs.decided <- Some x)
      counts
  end

let automaton g ~dealer ~receiver ~x_dealer =
  let rts = routes g ~dealer ~receiver in
  let init v =
    if v = dealer then
      ( Dealer_done,
        List.filter_map
          (fun route ->
            Option.map
              (fun next ->
                Engine.
                  { dst = next; payload = Flood.{ payload = x_dealer; trail = route } })
              (hop_after dealer route))
          rts )
    else if v = receiver then
      ( Receiver
          {
            num_routes = List.length rts;
            known = rts;
            votes = Hashtbl.create 4;
            decided = None;
          },
        [] )
    else (Relay v, [])
  in
  let step v st ~round:_ ~inbox =
    match st with
    | Dealer_done -> (st, [])
    | Relay self ->
      ( st,
        List.filter_map
          (fun (src, (m : msg)) ->
            (* forward only on my own route position, only from the true
               predecessor *)
            match (hop_before self m.trail, hop_after self m.trail) with
            | Some prev, Some next when prev = src ->
              Some Engine.{ dst = next; payload = m }
            | _ -> None)
          inbox )
    | Receiver rs ->
      List.iter
        (fun (src, (m : msg)) ->
          if
            List.exists (fun r -> List.equal Int.equal r m.trail) rs.known
            && hop_before v m.trail = Some src
            && not (Hashtbl.mem rs.votes m.trail)
          then Hashtbl.replace rs.votes m.trail m.payload)
        inbox;
      try_decide rs;
      (st, [])
  in
  Engine.{ init; step; decision }

let run ?(adversary = Engine.no_adversary) g ~dealer ~receiver ~x_dealer =
  let auto = automaton g ~dealer ~receiver ~x_dealer in
  Engine.result_of ~receiver ~x_dealer
    (Engine.run
       ~stop_when:(fun dec -> dec receiver <> None)
       ~graph:g ~adversary auto)

let tolerates g ~dealer ~receiver =
  if Graph.mem_edge dealer receiver g then max_int
  else (List.length (routes g ~dealer ~receiver) - 1) / 2
