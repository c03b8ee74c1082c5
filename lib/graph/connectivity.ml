open Rmt_base

let reachable_from ?(avoiding = Nodeset.empty) g src =
  if (not (Graph.mem_node src g)) || Nodeset.mem src avoiding then
    Nodeset.empty
  else begin
    let visited = ref (Nodeset.singleton src) in
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Nodeset.iter
        (fun u ->
          if (not (Nodeset.mem u !visited)) && not (Nodeset.mem u avoiding)
          then begin
            visited := Nodeset.add u !visited;
            Queue.add u queue
          end)
        (Graph.neighbors v g)
    done;
    !visited
  end

let component_of ?avoiding g v = reachable_from ?avoiding g v

let is_connected g =
  match Nodeset.choose_opt (Graph.nodes g) with
  | None -> true
  | Some v -> Nodeset.equal (reachable_from g v) (Graph.nodes g)

let connected_avoiding g s t c =
  Nodeset.mem t (reachable_from ~avoiding:c g s)

let distances_from g src =
  if not (Graph.mem_node src g) then []
  else begin
    let dist = Hashtbl.create 16 in
    Hashtbl.replace dist src 0;
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let dv = Hashtbl.find dist v in
      Nodeset.iter
        (fun u ->
          if not (Hashtbl.mem dist u) then begin
            Hashtbl.replace dist u (dv + 1);
            Queue.add u queue
          end)
        (Graph.neighbors v g)
    done;
    Hashtbl.fold (fun v d acc -> (v, d) :: acc) dist []
    |> List.sort (fun (v1, d1) (v2, d2) ->
           let c = Int.compare v1 v2 in
           if c <> 0 then c else Int.compare d1 d2)
  end

let eccentricity g v =
  let ds = distances_from g v in
  if List.length ds <> Graph.num_nodes g then None
  else Some (List.fold_left (fun acc (_, d) -> max acc d) 0 ds)

let diameter g =
  if Graph.num_nodes g = 0 then None
  else
    Nodeset.fold
      (fun v acc ->
        match (acc, eccentricity g v) with
        | Some a, Some e -> Some (max a e)
        | _ -> None)
      (Graph.nodes g) (Some 0)

let is_cut g d r c =
  Graph.mem_node d g && Graph.mem_node r g
  && (not (Nodeset.mem d c))
  && (not (Nodeset.mem r c))
  && not (connected_avoiding g d r c)

(* Menger via node splitting: each node v becomes v_in -> v_out with
   capacity 1 (infinite for d and r); edge (u,v) becomes u_out -> v_in and
   v_out -> u_in with infinite capacity.  Max flow = min vertex cut.  We run
   plain BFS augmentation (Edmonds–Karp); cuts here are small. *)
let min_vertex_cut g d r =
  if d = r || Graph.mem_edge d r g then max_int
  else begin
    let ids = Nodeset.to_array (Graph.nodes g) in
    let n = Array.length ids in
    let index = Hashtbl.create n in
    Array.iteri (fun i v -> Hashtbl.replace index v i) ids;
    (* vertex 2i = v_in, 2i+1 = v_out *)
    let nn = 2 * n in
    let cap = Hashtbl.create (4 * n) in
    let get u v = try Hashtbl.find cap (u, v) with Not_found -> 0 in
    let setc u v x = Hashtbl.replace cap (u, v) x in
    let inf = 1_000_000 in
    Array.iteri
      (fun i v ->
        let c = if v = d || v = r then inf else 1 in
        setc (2 * i) ((2 * i) + 1) c)
      ids;
    List.iter
      (fun (u, v) ->
        let iu = Hashtbl.find index u and iv = Hashtbl.find index v in
        setc ((2 * iu) + 1) (2 * iv) inf;
        setc ((2 * iv) + 1) (2 * iu) inf)
      (Graph.edges g);
    let adj = Array.make nn [] in
    Hashtbl.iter
      (fun (u, v) _ ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      (Hashtbl.copy cap);
    let s = (2 * Hashtbl.find index d) + 1 in
    let t = 2 * Hashtbl.find index r in
    let flow = ref 0 in
    let rec augment () =
      let parent = Array.make nn (-1) in
      parent.(s) <- s;
      let queue = Queue.create () in
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
            if parent.(v) = -1 && get u v > 0 then begin
              parent.(v) <- u;
              Queue.add v queue
            end)
          adj.(u)
      done;
      if parent.(t) = -1 then ()
      else begin
        (* unit bottleneck is enough: node capacities are 1 *)
        let rec push v =
          if v <> s then begin
            let u = parent.(v) in
            setc u v (get u v - 1);
            setc v u (get v u + 1);
            push u
          end
        in
        push t;
        incr flow;
        if !flow < n then augment ()
      end
    in
    augment ();
    !flow
  end
