open Rmt_base
open Rmt_net

type player = {
  self : int;
  mutable decided : int option;
  mutable sent : bool;
  senders : (int, Nodeset.t) Hashtbl.t;
}

type state =
  | Dealer
  | Player of player

let decision = function
  | Dealer -> None
  | Player p -> p.decided

let automaton g ~dealer ~receiver ~t ~x_dealer =
  let broadcast v x = Flood.broadcast g v x in
  let init v =
    if v = dealer then (Dealer, broadcast v x_dealer)
    else
      ( Player
          { self = v; decided = None; sent = false; senders = Hashtbl.create 4 },
        [] )
  in
  let step _v st ~round:_ ~inbox =
    match st with
    | Dealer -> (st, [])
    | Player p ->
      if p.decided <> None then (st, [])
      else begin
        (match
           List.find_map
             (fun (src, x) -> if src = dealer then Some x else None)
             inbox
         with
         | Some x -> p.decided <- Some x
         | None ->
           List.iter
             (fun (src, x) ->
               let cur =
                 Option.value (Hashtbl.find_opt p.senders x)
                   ~default:Nodeset.empty
               in
               Hashtbl.replace p.senders x (Nodeset.add src cur))
             inbox;
           let xs =
             Hashtbl.fold (fun x _ acc -> x :: acc) p.senders []
             |> List.sort Int.compare
           in
           List.iter
             (fun x ->
               if
                 p.decided = None
                 && Nodeset.size (Hashtbl.find p.senders x) >= t + 1
               then p.decided <- Some x)
             xs);
        match p.decided with
        | Some x when (not p.sent) && p.self <> receiver ->
          p.sent <- true;
          (st, broadcast p.self x)
        | _ -> (st, [])
      end
  in
  Engine.{ init; step; decision }

let run ?(adversary = Engine.no_adversary) g ~dealer ~receiver ~t ~x_dealer =
  let auto = automaton g ~dealer ~receiver ~t ~x_dealer in
  Engine.result_of ~receiver ~x_dealer (Engine.run ~graph:g ~adversary auto)
