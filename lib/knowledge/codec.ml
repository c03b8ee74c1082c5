open Rmt_base
open Rmt_graph
open Rmt_adversary

let ( let* ) = Result.bind

let to_string (inst : Instance.t) =
  let view_line =
    match String.split_on_char '-' (View.label inst.view) with
    | [ "full" ] -> Ok "view full"
    | [ "ad"; "hoc" ] -> Ok "view ad-hoc"
    | [ "radius"; k ] -> Ok (Printf.sprintf "view radius %s" k)
    | _ -> Error "Codec.to_string: custom views cannot be serialized"
  in
  let* view_line = view_line in
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# rmt instance";
  line "nodes %s"
    (String.concat " "
       (List.map string_of_int (Nodeset.elements (Graph.nodes inst.graph))));
  line "edges %s"
    (String.concat " "
       (List.map
          (fun (u, v) -> Printf.sprintf "%d-%d" u v)
          (Graph.edges inst.graph)));
  line "dealer %d" inst.dealer;
  line "receiver %d" inst.receiver;
  line "%s" view_line;
  line "ground %s"
    (String.concat " "
       (List.map string_of_int
          (Nodeset.elements (Structure.ground inst.structure))));
  List.iter
    (fun m ->
      line "set %s"
        (String.concat " " (List.map string_of_int (Nodeset.elements m))))
    (Structure.maximal_sets inst.structure);
  Ok (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type draft = {
  mutable nodes : Nodeset.t;
  mutable edges : (int * int) list;
  mutable dealer : int option;
  mutable receiver : int option;
  mutable view : string list option;
  mutable ground : Nodeset.t option;
  mutable sets : Nodeset.t list;
}

let max_node_id = 65535

let parse_node_id s =
  match int_of_string_opt s with
  | Some v when v >= 0 && v <= max_node_id -> Ok v
  | Some v when v > max_node_id ->
    Error (Printf.sprintf "node id %d exceeds the limit %d" v max_node_id)
  | _ -> Error (Printf.sprintf "expected a node id, got %S" s)

let parse_id ~ctx s =
  Result.map_error (fun e -> ctx ^ ": " ^ e) (parse_node_id s)

let parse_ints ~ctx ss =
  List.fold_left
    (fun acc s ->
      let* acc = acc in
      let* v = parse_id ~ctx s in
      Ok (v :: acc))
    (Ok []) ss

let parse_edge ~ctx s =
  match String.split_on_char '-' s with
  | [ a; b ] ->
    let* a = parse_id ~ctx a in
    let* b = parse_id ~ctx b in
    Ok (a, b)
  | _ -> Error (Printf.sprintf "%s: expected an edge u-v, got %S" ctx s)

let parse_line draft lineno line =
  let ctx = Printf.sprintf "line %d" lineno in
  match Util.tokens line with
  | [] -> Ok ()
  | "nodes" :: rest ->
    let* vs = parse_ints ~ctx rest in
    draft.nodes <- Nodeset.union draft.nodes (Nodeset.of_list vs);
    Ok ()
  | "edges" :: rest ->
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let* e = parse_edge ~ctx s in
        draft.edges <- e :: draft.edges;
        Ok ())
      (Ok ()) rest
  | [ "dealer"; d ] ->
    let* d = parse_id ~ctx d in
    draft.dealer <- Some d;
    Ok ()
  | [ "receiver"; r ] ->
    let* r = parse_id ~ctx r in
    draft.receiver <- Some r;
    Ok ()
  | "view" :: spec ->
    draft.view <- Some spec;
    Ok ()
  | "ground" :: rest ->
    let* vs = parse_ints ~ctx rest in
    draft.ground <- Some (Nodeset.of_list vs);
    Ok ()
  | "set" :: rest ->
    let* vs = parse_ints ~ctx rest in
    draft.sets <- Nodeset.of_list vs :: draft.sets;
    Ok ()
  | kw :: _ -> Error (Printf.sprintf "%s: unknown keyword %S" ctx kw)

let of_string text =
  let draft =
    {
      nodes = Nodeset.empty;
      edges = [];
      dealer = None;
      receiver = None;
      view = None;
      ground = None;
      sets = [];
    }
  in
  let lines = String.split_on_char '\n' text in
  let* () =
    List.fold_left
      (fun (acc : (unit, string) result) (lineno, line) ->
        let* () = acc in
        parse_line draft lineno line)
      (Ok ())
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let graph = Graph.of_nodes_edges draft.nodes draft.edges in
  let* dealer =
    Option.to_result ~none:"missing 'dealer' line" draft.dealer
  in
  let* receiver =
    Option.to_result ~none:"missing 'receiver' line" draft.receiver
  in
  let* view =
    match draft.view with
    | None | Some [ "ad-hoc" ] -> Ok (View.ad_hoc graph)
    | Some [ "full" ] -> Ok (View.full graph)
    | Some [ "radius"; k ] ->
      (match int_of_string_opt k with
       | Some k when k >= 0 -> Ok (View.radius k graph)
       | _ -> Error (Printf.sprintf "bad radius %S" k))
    | Some spec ->
      Error (Printf.sprintf "unknown view spec %S" (String.concat " " spec))
  in
  let ground =
    match draft.ground with
    | Some g -> Nodeset.remove dealer g
    | None -> Nodeset.remove dealer (Graph.nodes graph)
  in
  let* structure =
    try Ok (Structure.of_sets ~ground (List.map (Nodeset.inter ground) draft.sets))
    with Invalid_argument m -> Error m
  in
  try Ok (Instance.make ~graph ~structure ~view ~dealer ~receiver)
  with Invalid_argument m -> Error m

let to_file path inst =
  let* s = to_string inst in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      Ok ())

let of_file path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
