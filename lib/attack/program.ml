open Rmt_base

type base =
  | Honest
  | Silent
  | Crash_after of int
  | Drop of float

type inject =
  | Flip_value of int
  | Forge_trail of int
  | Lie_topology
  | Phantom of int
  | Forge_edges of int
  | Spam of { spam_seed : int; rounds : int }

type node_program = {
  node : int;
  base : base;
  injects : inject list;
}

type t = {
  seed : int;
  nodes : node_program list;
}

let make ~seed nodes =
  let sorted = List.sort (fun a b -> Int.compare a.node b.node) nodes in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.node = b.node -> a :: dedup (List.tl rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  { seed; nodes = dedup sorted }

let uniform ~seed corrupted base injects =
  make ~seed
    (Nodeset.fold (fun node acc -> { node; base; injects } :: acc) corrupted [])

let corrupted t = Nodeset.of_list (List.map (fun np -> np.node) t.nodes)

let size t =
  List.fold_left
    (fun acc np ->
      acc + 1 + List.length np.injects
      + (match np.base with Silent -> 0 | _ -> 1))
    0 t.nodes

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let base_to_string = function
  | Honest -> "honest"
  | Silent -> "silent"
  | Crash_after k -> Printf.sprintf "crash:%d" k
  | Drop p -> Printf.sprintf "drop:%.17g" p (* exact float round-trip *)

let inject_to_string = function
  | Flip_value x -> Printf.sprintf "flip:%d" x
  | Forge_trail x -> Printf.sprintf "forge-trail:%d" x
  | Lie_topology -> "lie-topology"
  | Phantom x -> Printf.sprintf "phantom:%d" x
  | Forge_edges x -> Printf.sprintf "forge-edges:%d" x
  | Spam { spam_seed; rounds } -> Printf.sprintf "spam:%d:%d" spam_seed rounds

let to_lines t =
  Printf.sprintf "attack-seed %d" t.seed
  :: List.map
       (fun np ->
         Printf.sprintf "attack-node %d %s%s" np.node (base_to_string np.base)
           (String.concat ""
              (List.map (fun i -> " " ^ inject_to_string i) np.injects)))
       t.nodes

let ( let* ) = Result.bind

let base_of_string s =
  match String.split_on_char ':' s with
  | [ "honest" ] -> Ok Honest
  | [ "silent" ] -> Ok Silent
  | [ "crash"; k ] ->
    (match int_of_string_opt k with
     | Some k when k >= 0 -> Ok (Crash_after k)
     | _ -> Error (Printf.sprintf "bad crash round %S" k))
  | [ "drop"; p ] ->
    (match float_of_string_opt p with
     | Some p when p >= 0. && p <= 1. -> Ok (Drop p)
     | _ -> Error (Printf.sprintf "bad drop probability %S" p))
  | _ -> Error (Printf.sprintf "unknown base behavior %S" s)

let inject_of_string s =
  let int_arg ctx k f =
    match int_of_string_opt k with
    | Some v -> Ok (f v)
    | None -> Error (Printf.sprintf "bad %s argument %S" ctx k)
  in
  match String.split_on_char ':' s with
  | [ "flip"; x ] -> int_arg "flip" x (fun x -> Flip_value x)
  | [ "forge-trail"; x ] -> int_arg "forge-trail" x (fun x -> Forge_trail x)
  | [ "lie-topology" ] -> Ok Lie_topology
  | [ "phantom"; x ] -> int_arg "phantom" x (fun x -> Phantom x)
  | [ "forge-edges"; x ] -> int_arg "forge-edges" x (fun x -> Forge_edges x)
  | [ "spam"; seed; rounds ] ->
    let* spam_seed =
      Option.to_result ~none:"bad spam seed" (int_of_string_opt seed)
    in
    let* rounds =
      Option.to_result ~none:"bad spam rounds" (int_of_string_opt rounds)
    in
    if rounds < 0 then Error "negative spam rounds"
    else Ok (Spam { spam_seed; rounds })
  | _ -> Error (Printf.sprintf "unknown injection %S" s)

let is_attack_line line =
  match Util.tokens line with
  | ("attack-seed" | "attack-node") :: _ -> true
  | _ -> false

let of_lines lines =
  let seed = ref None and nodes = ref [] in
  let* () =
    List.fold_left
      (fun acc line ->
        let* () = acc in
        match Util.tokens line with
        | [] -> Ok ()
        | [ "attack-seed"; s ] ->
          (match int_of_string_opt s with
           | Some s ->
             seed := Some s;
             Ok ()
           | None -> Error (Printf.sprintf "bad attack-seed %S" s))
        | "attack-node" :: id :: base :: injects ->
          let* node =
            Option.to_result
              ~none:(Printf.sprintf "bad node id %S" id)
              (int_of_string_opt id)
          in
          let* base = base_of_string base in
          let* injects =
            List.fold_left
              (fun acc s ->
                let* acc = acc in
                let* i = inject_of_string s in
                Ok (i :: acc))
              (Ok []) injects
          in
          nodes := { node; base; injects = List.rev injects } :: !nodes;
          Ok ()
        | kw :: _ -> Error (Printf.sprintf "unknown attack keyword %S" kw))
      (Ok ()) lines
  in
  let* seed = Option.to_result ~none:"missing 'attack-seed' line" !seed in
  Ok (make ~seed (List.rev !nodes))

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list Format.pp_print_string)
    (to_lines t)

let base_equal a b =
  match (a, b) with
  | Honest, Honest | Silent, Silent -> true
  | Crash_after j, Crash_after k -> j = k
  | Drop p, Drop q -> Float.equal p q
  | (Honest | Silent | Crash_after _ | Drop _), _ -> false

let inject_equal a b =
  match (a, b) with
  | Flip_value x, Flip_value y
  | Forge_trail x, Forge_trail y
  | Phantom x, Phantom y
  | Forge_edges x, Forge_edges y -> x = y
  | Lie_topology, Lie_topology -> true
  | Spam a, Spam b -> a.spam_seed = b.spam_seed && a.rounds = b.rounds
  | ( ( Flip_value _ | Forge_trail _ | Lie_topology | Phantom _
      | Forge_edges _ | Spam _ ),
      _ ) -> false

let node_program_equal a b =
  a.node = b.node
  && base_equal a.base b.base
  && List.equal inject_equal a.injects b.injects

let equal a b =
  a.seed = b.seed && List.equal node_program_equal a.nodes b.nodes
