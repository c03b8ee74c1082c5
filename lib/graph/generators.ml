open Rmt_base

let path_graph n =
  let g = Graph.add_nodes (Nodeset.range 0 n) Graph.empty in
  let rec go g i = if i >= n - 1 then g else go (Graph.add_edge i (i + 1) g) (i + 1) in
  go g 0

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.add_edge (n - 1) 0 (path_graph n)

let complete n =
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      g := Graph.add_edge i j !g
    done
  done;
  !g

let star n =
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for i = 1 to n - 1 do
    g := Graph.add_edge 0 i !g
  done;
  !g

let grid rows cols =
  let id i j = (i * cols) + j in
  let g = ref (Graph.add_nodes (Nodeset.range 0 (rows * cols)) Graph.empty) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if j + 1 < cols then g := Graph.add_edge (id i j) (id i (j + 1)) !g;
      if i + 1 < rows then g := Graph.add_edge (id i j) (id (i + 1) j) !g
    done
  done;
  !g

let king_grid rows cols =
  let id i j = (i * cols) + j in
  let g = ref (grid rows cols) in
  for i = 0 to rows - 2 do
    for j = 0 to cols - 1 do
      if j + 1 < cols then g := Graph.add_edge (id i j) (id (i + 1) (j + 1)) !g;
      if j > 0 then g := Graph.add_edge (id i j) (id (i + 1) (j - 1)) !g
    done
  done;
  !g

let layered ~width ~depth =
  if width < 1 || depth < 1 then invalid_arg "Generators.layered";
  let node_of layer k = 1 + ((layer - 1) * width) + k in
  let g = ref Graph.empty in
  (* dealer 0 to first layer *)
  for k = 0 to width - 1 do
    g := Graph.add_edge 0 (node_of 1 k) !g
  done;
  for layer = 1 to depth - 1 do
    for a = 0 to width - 1 do
      for b = 0 to width - 1 do
        g := Graph.add_edge (node_of layer a) (node_of (layer + 1) b) !g
      done
    done
  done;
  let receiver = 1 + (width * depth) in
  for k = 0 to width - 1 do
    g := Graph.add_edge (node_of depth k) receiver !g
  done;
  !g

let basic_instance_graph m =
  if m < 1 then invalid_arg "Generators.basic_instance_graph";
  let g = ref Graph.empty in
  for i = 1 to m do
    g := Graph.add_edge 0 i !g;
    g := Graph.add_edge i (m + 1) !g
  done;
  !g

let random_gnp rng n p =
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.chance rng p then g := Graph.add_edge i j !g
    done
  done;
  !g

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
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for _ = 1 to d do
    let perm = Array.init n Fun.id in
    Prng.shuffle rng perm;
    let i = ref 0 in
    while !i + 1 < n do
      g := Graph.add_edge perm.(!i) perm.(!i + 1) !g;
      i := !i + 2
    done
  done;
  !g

let communities rng ~blocks ~size ~p_in ~p_out =
  let n = blocks * size in
  let block v = v / size in
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = if block i = block j then p_in else p_out in
      if Prng.chance rng p then g := Graph.add_edge i j !g
    done
  done;
  !g

let ladder n =
  if n < 1 then invalid_arg "Generators.ladder";
  let g = ref (Graph.add_nodes (Nodeset.range 0 (2 * n)) Graph.empty) in
  for i = 0 to n - 2 do
    g := Graph.add_edge i (i + 1) !g;
    g := Graph.add_edge (n + i) (n + i + 1) !g
  done;
  for i = 0 to n - 1 do
    g := Graph.add_edge i (n + i) !g
  done;
  !g

let hypercube d =
  if d < 0 || d > 16 then invalid_arg "Generators.hypercube";
  let n = 1 lsl d in
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let u = v lxor (1 lsl bit) in
      if v < u then g := Graph.add_edge v u !g
    done
  done;
  !g

let binary_tree depth =
  if depth < 0 then invalid_arg "Generators.binary_tree";
  let n = (1 lsl (depth + 1)) - 1 in
  let g = ref (Graph.add_nodes (Nodeset.range 0 n) Graph.empty) in
  for v = 0 to n - 1 do
    List.iter
      (fun c -> if c < n then g := Graph.add_edge v c !g)
      [ (2 * v) + 1; (2 * v) + 2 ]
  done;
  !g

let barbell n =
  if n < 2 then invalid_arg "Generators.barbell";
  let clique offset g =
    let g = ref g in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        g := Graph.add_edge (offset + i) (offset + j) !g
      done
    done;
    !g
  in
  Graph.add_edge (n - 1) n (clique n (clique 0 Graph.empty))
