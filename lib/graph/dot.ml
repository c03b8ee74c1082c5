open Rmt_base

let to_dot ?(highlight = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph g {\n";
  Buffer.add_string buf "  node [shape=circle];\n";
  Nodeset.iter
    (fun v ->
      match List.assoc_opt v highlight with
      | Some color ->
        Buffer.add_string buf
          (Printf.sprintf "  %d [style=filled, fillcolor=\"%s\"];\n" v color)
      | None -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v))
    (Graph.nodes g);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let instance_dot ~dealer ~receiver ?(corrupted = Nodeset.empty) g =
  let highlight =
    ((dealer, "palegreen") :: (receiver, "lightblue")
    :: Nodeset.fold (fun v acc -> (v, "salmon") :: acc) corrupted [])
  in
  to_dot ~highlight g
