open Rmt_base

type path = int list

let is_simple p =
  let rec go seen = function
    | [] -> true
    | v :: rest -> (not (Nodeset.mem v seen)) && go (Nodeset.add v seen) rest
  in
  go Nodeset.empty p

let is_path_in g p =
  is_simple p
  &&
  let rec go = function
    | [] -> true
    | [ v ] -> Graph.mem_node v g
    | u :: (v :: _ as rest) -> Graph.mem_edge u v g && go rest
  in
  go p

exception Budget_exhausted

exception Found of path

let find_simple_path ?(budget = 200_000) g s t pred =
  if not (Graph.mem_node s g && Graph.mem_node t g) then (None, true)
  else begin
    let remaining = ref budget in
    let rec go v trail visited =
      if !remaining <= 0 then raise Budget_exhausted;
      decr remaining;
      if v = t then begin
        let p = List.rev (v :: trail) in
        if pred p then raise (Found p)
      end
      else
        Nodeset.iter
          (fun u ->
            if not (Nodeset.mem u visited) then
              go u (v :: trail) (Nodeset.add u visited))
          (Graph.neighbors v g)
    in
    try
      if s = t then begin
        if pred [ s ] then (Some [ s ], true) else (None, true)
      end
      else begin
        go s [] (Nodeset.singleton s);
        (None, true)
      end
    with
    | Found p -> (Some p, true)
    | Budget_exhausted -> (None, false)
  end

let shortest_path g s t =
  if not (Graph.mem_node s g && Graph.mem_node t g) then None
  else begin
    let parent = Hashtbl.create 16 in
    Hashtbl.replace parent s s;
    let queue = Queue.create () in
    Queue.add s queue;
    let found = ref (s = t) in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Nodeset.iter
        (fun u ->
          if not (Hashtbl.mem parent u) then begin
            Hashtbl.replace parent u v;
            if u = t then found := true else Queue.add u queue
          end)
        (Graph.neighbors v g)
    done;
    if not (Hashtbl.mem parent t) then None
    else begin
      let rec build v acc =
        if v = s then s :: acc else build (Hashtbl.find parent v) (v :: acc)
      in
      Some (build t [])
    end
  end
