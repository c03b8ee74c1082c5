open Rmt_base
open Rmt_net

type player = {
  self : int;
  mutable decided : int option;
  mutable sent : bool;
  votes : (int, Nodeset.t) Hashtbl.t;
}

type state =
  | Dealer
  | Player of player

let decision = function
  | Dealer -> None
  | Player p -> p.decided

let make g ~dealer ~x_dealer ~adopt =
  let init v =
    if v = dealer then (Dealer, Flood.broadcast g v x_dealer)
    else
      ( Player
          { self = v; decided = None; sent = false; votes = Hashtbl.create 4 },
        [] )
  in
  let step _v st ~round:_ ~inbox =
    match st with
    | Dealer -> (st, [])
    | Player p ->
      if p.decided = None then begin
        List.iter
          (fun (src, x) ->
            let cur =
              Option.value (Hashtbl.find_opt p.votes x) ~default:Nodeset.empty
            in
            Hashtbl.replace p.votes x (Nodeset.add src cur))
          inbox;
        p.decided <- adopt p
      end;
      match p.decided with
      | Some x when not p.sent ->
        p.sent <- true;
        (st, Flood.broadcast g p.self x)
      | _ -> (st, [])
  in
  Engine.{ init; step; decision }

let first_delivery g ~dealer ~receiver:_ ~x_dealer =
  let init v =
    if v = dealer then (Dealer, Flood.broadcast g v x_dealer)
    else
      ( Player
          { self = v; decided = None; sent = false; votes = Hashtbl.create 1 },
        [] )
  in
  let step _v st ~round:_ ~inbox =
    match st with
    | Dealer -> (st, [])
    | Player p ->
      (if p.decided = None then
         match inbox with
         | (_, x) :: _ -> p.decided <- Some x
         | [] -> ());
      (match p.decided with
       | Some x when not p.sent ->
         p.sent <- true;
         (st, Flood.broadcast g p.self x)
       | _ -> (st, []))
  in
  Engine.{ init; step; decision }

let first_value g ~dealer ~receiver:_ ~x_dealer =
  let adopt p =
    Hashtbl.fold
      (fun x senders acc ->
        if Nodeset.is_empty senders then acc
        else
          match acc with
          | Some _ -> acc
          | None -> Some x)
      p.votes None
  in
  make g ~dealer ~x_dealer ~adopt

let neighbor_majority g ~dealer ~receiver:_ ~x_dealer =
  let adopt p =
    let heard_from =
      Hashtbl.fold (fun _ s acc -> Nodeset.union s acc) p.votes Nodeset.empty
    in
    let total = Nodeset.size heard_from in
    let best =
      Hashtbl.fold
        (fun x s acc ->
          let n = Nodeset.size s in
          match acc with
          | Some (_, bn) when bn >= n -> acc
          | Some (bx, bn) when bn = n && bx <= x -> acc
          | _ -> Some (x, n))
        p.votes None
    in
    match best with
    | Some (x, n) when 2 * n > total -> Some x
    | _ -> None
  in
  make g ~dealer ~x_dealer ~adopt
