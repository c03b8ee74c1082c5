open Rmt_base

(* Every generator collects its edge list through [edge] and builds the
   graph once, over [nodes] plus the edges' endpoints. *)
let build nodes fill =
  let es = ref [] in
  fill (fun u v -> es := (u, v) :: !es);
  Graph.of_nodes_edges nodes !es

let path_edges n edge =
  for i = 0 to n - 2 do
    edge i (i + 1)
  done

let path_graph n = build (Nodeset.range 0 n) (path_edges n)

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  build (Nodeset.range 0 n) (fun edge ->
      path_edges n edge;
      edge (n - 1) 0)

let clique_edges offset n edge =
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edge (offset + i) (offset + j)
    done
  done

let complete n = build (Nodeset.range 0 n) (clique_edges 0 n)

let star n =
  build (Nodeset.range 0 n) (fun edge ->
      for i = 1 to n - 1 do
        edge 0 i
      done)

let grid_edges rows cols edge =
  let id i j = (i * cols) + j in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if j + 1 < cols then edge (id i j) (id i (j + 1));
      if i + 1 < rows then edge (id i j) (id (i + 1) j)
    done
  done

let grid rows cols =
  build (Nodeset.range 0 (rows * cols)) (grid_edges rows cols)

let king_grid rows cols =
  let id i j = (i * cols) + j in
  build (Nodeset.range 0 (rows * cols)) (fun edge ->
      grid_edges rows cols edge;
      for i = 0 to rows - 2 do
        for j = 0 to cols - 1 do
          if j + 1 < cols then edge (id i j) (id (i + 1) (j + 1));
          if j > 0 then edge (id i j) (id (i + 1) (j - 1))
        done
      done)

let layered ~width ~depth =
  if width < 1 || depth < 1 then invalid_arg "Generators.layered";
  let node_of layer k = 1 + ((layer - 1) * width) + k in
  let receiver = 1 + (width * depth) in
  build Nodeset.empty (fun edge ->
      (* dealer 0 to first layer *)
      for k = 0 to width - 1 do
        edge 0 (node_of 1 k)
      done;
      for layer = 1 to depth - 1 do
        for a = 0 to width - 1 do
          for b = 0 to width - 1 do
            edge (node_of layer a) (node_of (layer + 1) b)
          done
        done
      done;
      for k = 0 to width - 1 do
        edge (node_of depth k) receiver
      done)

let basic_instance_graph m =
  if m < 1 then invalid_arg "Generators.basic_instance_graph";
  build Nodeset.empty (fun edge ->
      for i = 1 to m do
        edge 0 i;
        edge i (m + 1)
      done)

let random_gnp rng n p =
  build (Nodeset.range 0 n) (fun edge ->
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Prng.chance rng p then edge i j
        done
      done)

let random_connected_gnp rng n p =
  let rec go attempts =
    if attempts > 10_000 then
      failwith "Generators.random_connected_gnp: could not sample a connected graph"
    else
      let g = random_gnp rng n p in
      if Connectivity.is_connected g then g else go (attempts + 1)
  in
  go 0

let random_regular_ish rng n d =
  (* union of d random near-perfect matchings: degree close to d *)
  build (Nodeset.range 0 n) (fun edge ->
      for _ = 1 to d do
        let perm = Array.init n Fun.id in
        Prng.shuffle rng perm;
        let i = ref 0 in
        while !i + 1 < n do
          edge perm.(!i) perm.(!i + 1);
          i := !i + 2
        done
      done)

let communities rng ~blocks ~size ~p_in ~p_out =
  let n = blocks * size in
  let block v = v / size in
  build (Nodeset.range 0 n) (fun edge ->
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let p = if block i = block j then p_in else p_out in
          if Prng.chance rng p then edge i j
        done
      done)

let ladder n =
  if n < 1 then invalid_arg "Generators.ladder";
  build (Nodeset.range 0 (2 * n)) (fun edge ->
      for i = 0 to n - 2 do
        edge i (i + 1);
        edge (n + i) (n + i + 1)
      done;
      for i = 0 to n - 1 do
        edge i (n + i)
      done)

let hypercube d =
  if d < 0 || d > 16 then invalid_arg "Generators.hypercube";
  let n = 1 lsl d in
  build (Nodeset.range 0 n) (fun edge ->
      for v = 0 to n - 1 do
        for bit = 0 to d - 1 do
          let u = v lxor (1 lsl bit) in
          if v < u then edge v u
        done
      done)

let binary_tree depth =
  if depth < 0 then invalid_arg "Generators.binary_tree";
  let n = (1 lsl (depth + 1)) - 1 in
  build (Nodeset.range 0 n) (fun edge ->
      for v = 0 to n - 1 do
        let left = (2 * v) + 1 in
        if left < n then edge v left;
        if left + 1 < n then edge v (left + 1)
      done)

let barbell n =
  if n < 2 then invalid_arg "Generators.barbell";
  build Nodeset.empty (fun edge ->
      clique_edges 0 n edge;
      clique_edges n n edge;
      edge (n - 1) n)
