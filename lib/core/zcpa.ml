open Rmt_base
open Rmt_adversary
open Rmt_knowledge
open Rmt_net

type oracle = v:int -> Nodeset.t -> bool

let direct_oracle (inst : Instance.t) ~v n =
  not (Structure.mem n (Instance.local_structure inst v))

let counting_oracle oracle =
  let calls = ref 0 in
  ( calls,
    fun ~v n ->
      incr calls;
      oracle ~v n )

type decider = v:int -> (int * Nodeset.t) list -> int option

let decider_of_oracle oracle ~v classes =
  List.find_map
    (fun (x, senders) -> if oracle ~v senders then Some x else None)
    (List.sort
       (fun (x1, s1) (x2, s2) ->
         let c = Int.compare x1 x2 in
         if c <> 0 then c else Nodeset.compare s1 s2)
       classes)

type role =
  | Dealer
  | Player of player

and player = {
  self : int;
  mutable decided : int option;
  mutable sent : bool;
  (* value ↦ set of neighbors that sent it *)
  senders : (int, Nodeset.t) Hashtbl.t;
}

type state = role

let decision = function
  | Dealer -> None
  | Player p -> p.decided

let automaton ?(forward_all = false) ~decider (inst : Instance.t) ~x_dealer =
  let g = inst.graph in
  let broadcast v x = Flood.broadcast g v x in
  let init v =
    if v = inst.dealer then (Dealer, broadcast v x_dealer)
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
        (* rule 1: a value from the dealer is decided immediately *)
        let from_dealer =
          List.find_map
            (fun (src, x) -> if src = inst.dealer then Some x else None)
            inbox
        in
        (match from_dealer with
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
           (* rule 2: certified propagation via the subroutine *)
           let classes =
             Hashtbl.fold (fun x s acc -> (x, s) :: acc) p.senders []
             |> List.sort (fun (x1, _) (x2, _) -> Int.compare x1 x2)
           in
           if classes <> [] then p.decided <- decider ~v:p.self classes);
        (* rule 3: forward on decision (in the RMT adaptation the
           receiver only outputs; in the broadcast original it relays) *)
        match p.decided with
        | Some x when (not p.sent) && (forward_all || p.self <> inst.receiver) ->
          p.sent <- true;
          (st, broadcast p.self x)
        | _ -> (st, [])
      end
  in
  Engine.{ init; step; decision }

let run ?oracle ?decider ?(adversary = Engine.no_adversary) (inst : Instance.t)
    ~x_dealer =
  let decider =
    match (decider, oracle) with
    | Some d, _ -> d
    | None, Some o -> decider_of_oracle o
    | None, None -> decider_of_oracle (direct_oracle inst)
  in
  Engine.result_of ~receiver:inst.receiver ~x_dealer
    (Engine.run ~graph:inst.graph ~adversary
       (automaton ~decider inst ~x_dealer))
