open Rmt_base
open Rmt_knowledge

type stats = {
  updates : int;
  rejected : int;
  queries : int;
  cached : int;
  witness_reuses : int;
  searches : int;
}

type t = {
  mutable inst : Instance.t;
  mutable gen : int; (* bumped on every applied delta *)
  mutable verdict : (int * Cut.verdict) option; (* tagged by gen *)
  mutable updates : int;
  mutable rejected : int;
  mutable queries : int;
  mutable cached : int;
  mutable witness_reuses : int;
  mutable searches : int;
}

let create inst =
  {
    inst;
    gen = 0;
    verdict = None;
    updates = 0;
    rejected = 0;
    queries = 0;
    cached = 0;
    witness_reuses = 0;
    searches = 0;
  }

let instance t = t.inst

let generation t = t.gen

let apply t delta =
  match Delta.apply t.inst delta with
  | Ok inst ->
    t.inst <- inst;
    t.gen <- t.gen + 1;
    t.updates <- t.updates + 1;
    Ok ()
  | Error m ->
    t.rejected <- t.rejected + 1;
    Error m

let cut ?budget t =
  t.queries <- t.queries + 1;
  match t.verdict with
  | Some (g, v) when g = t.gen ->
    t.cached <- t.cached + 1;
    v
  | Some (_, prev) ->
    let v, how = Cut.update ?budget ~prev t.inst in
    (match how with
     | `Witness_reused -> t.witness_reuses <- t.witness_reuses + 1
     | `Researched -> t.searches <- t.searches + 1);
    t.verdict <- Some (t.gen, v);
    v
  | None ->
    let v = Cut.find_rmt_cut ?budget t.inst in
    t.searches <- t.searches + 1;
    t.verdict <- Some (t.gen, v);
    v

let solvable ?budget t = Solvability.of_verdict (cut ?budget t)

let stats t =
  {
    updates = t.updates;
    rejected = t.rejected;
    queries = t.queries;
    cached = t.cached;
    witness_reuses = t.witness_reuses;
    searches = t.searches;
  }

(* ------------------------------------------------------------------ *)
(* Replay protocol                                                     *)
(* ------------------------------------------------------------------ *)

type command =
  | Update of Delta.t
  | Query_solvable
  | Query_cut
  | Query_stats

let parse_set w =
  let parts = String.split_on_char ',' w in
  let rec go acc = function
    | [] -> Ok acc
    | p :: rest -> (
      match Codec.parse_node_id p with
      | Ok v -> go (Nodeset.add v acc) rest
      | Error e ->
        Error (Printf.sprintf "expected a node set N[,N..], got %S (%s)" w e))
  in
  go Nodeset.empty parts

let command_words =
  [
    "solvable?"; "cut?"; "stats?"; "add-edge"; "remove-edge"; "add-node";
    "remove-node"; "add-set"; "remove-set";
  ]

let parse_command line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  let ( let* ) = Result.bind in
  match words with
  | [] -> Ok None
  | [ "solvable?" ] -> Ok (Some Query_solvable)
  | [ "cut?" ] -> Ok (Some Query_cut)
  | [ "stats?" ] -> Ok (Some Query_stats)
  | [ "add-edge"; u; v ] ->
    let* u = Codec.parse_node_id u in
    let* v = Codec.parse_node_id v in
    Ok (Some (Update (Delta.Add_edge (u, v))))
  | [ "remove-edge"; u; v ] ->
    let* u = Codec.parse_node_id u in
    let* v = Codec.parse_node_id v in
    Ok (Some (Update (Delta.Remove_edge (u, v))))
  | [ "add-node"; v ] ->
    let* v = Codec.parse_node_id v in
    Ok (Some (Update (Delta.Add_node (v, Nodeset.empty))))
  | [ "add-node"; v; links ] ->
    let* v = Codec.parse_node_id v in
    let* links = parse_set links in
    Ok (Some (Update (Delta.Add_node (v, links))))
  | [ "remove-node"; v ] ->
    let* v = Codec.parse_node_id v in
    Ok (Some (Update (Delta.Remove_node v)))
  | [ "add-set"; z ] ->
    let* z = parse_set z in
    Ok (Some (Update (Delta.Add_set z)))
  | [ "remove-set"; z ] ->
    let* z = parse_set z in
    Ok (Some (Update (Delta.Remove_set z)))
  | w :: _ when List.exists (String.equal w) command_words ->
    Error (Printf.sprintf "wrong number of arguments to %S" w)
  | w :: _ -> Error (Printf.sprintf "unknown command %S" w)

let set_compact z =
  match Nodeset.elements z with
  | [] -> "-"
  | elts -> String.concat "," (List.map string_of_int elts)

let exec ?budget t = function
  | Update d -> (
    match apply t d with
    | Ok () -> Printf.sprintf "ok %d" t.gen
    | Error m -> Printf.sprintf "error: %s" m)
  | Query_solvable ->
    Format.asprintf "%a" Solvability.pp_feasibility (solvable ?budget t)
  | Query_cut -> (
    let v = cut ?budget t in
    match v.Cut.cut_found with
    | Some w ->
      Printf.sprintf "cut c1=%s c2=%s" (set_compact w.Cut.c1)
        (set_compact w.Cut.c2)
    | None -> if v.Cut.complete then "cut none" else "cut unknown")
  | Query_stats ->
    let s = stats t in
    Printf.sprintf
      "stats updates=%d rejected=%d queries=%d cached=%d reused=%d searched=%d"
      s.updates s.rejected s.queries s.cached s.witness_reuses s.searches

let replay ?budget t ic oc =
  let errors = ref 0 in
  (try
     while true do
       let line = input_line ic in
       match parse_command line with
       | Ok None -> ()
       | Ok (Some c) ->
         let out = exec ?budget t c in
         if String.length out >= 6 && String.sub out 0 6 = "error:" then
           incr errors;
         output_string oc (out ^ "\n")
       | Error m ->
         incr errors;
         output_string oc ("error: " ^ m ^ "\n")
     done
   with End_of_file -> ());
  !errors
