open Rmt_knowledge

type t = {
  protocol : Campaign.protocol;
  x_dealer : int;
  instance : Instance.t;
  program : Program.t;
  expected : Campaign.verdict option;
}

let make ?expected ~protocol ~x_dealer instance program =
  { protocol; x_dealer; instance; program; expected }

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let expect_to_string = function
  | Campaign.Delivered -> "expect delivered"
  | Campaign.Silenced -> "expect silenced"
  | Campaign.Violated x -> Printf.sprintf "expect violated %d" x

let to_string t =
  let* instance_text = Codec.to_string t.instance in
  let meta =
    Printf.sprintf "protocol %s" (Campaign.protocol_to_string t.protocol)
    :: Printf.sprintf "value %d" t.x_dealer
    :: (match t.expected with
        | None -> []
        | Some v -> [ expect_to_string v ])
  in
  Ok
    (String.concat "\n"
       (("# rmt fuzz reproducer" :: meta)
       @ Program.to_lines t.program
       @ [ instance_text ]))

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let tokens line =
  String.split_on_char ' ' (strip_comment line)
  |> List.filter (fun s -> s <> "")

let is_meta_line line =
  match tokens line with
  | ("protocol" | "value" | "expect") :: _ -> true
  | _ -> false

let of_string text =
  let lines = String.split_on_char '\n' text in
  let attack_lines = List.filter Program.is_attack_line lines in
  let meta_lines = List.filter is_meta_line lines in
  let instance_lines =
    List.filter
      (fun l -> not (Program.is_attack_line l || is_meta_line l))
      lines
  in
  let* program = Program.of_lines attack_lines in
  let* instance = Codec.of_string (String.concat "\n" instance_lines) in
  let* () =
    match
      List.find_opt
        (fun (np : Program.node_program) ->
          np.node < 0 || not (Rmt_graph.Graph.mem_node np.node instance.graph))
        program.Program.nodes
    with
    | Some np ->
      Error
        (Printf.sprintf "attack-node %d is not a node of the instance graph"
           np.node)
    | None -> Ok ()
  in
  let protocol = ref None and x_dealer = ref None and expected = ref None in
  let* () =
    List.fold_left
      (fun acc line ->
        let* () = acc in
        match tokens line with
        | [ "protocol"; p ] ->
          let* p = Campaign.protocol_of_string p in
          protocol := Some p;
          Ok ()
        | [ "value"; x ] ->
          (match int_of_string_opt x with
           | Some x ->
             x_dealer := Some x;
             Ok ()
           | None -> Error (Printf.sprintf "bad dealer value %S" x))
        | [ "expect"; "delivered" ] ->
          expected := Some Campaign.Delivered;
          Ok ()
        | [ "expect"; "silenced" ] ->
          expected := Some Campaign.Silenced;
          Ok ()
        | [ "expect"; "violated"; x ] ->
          (match int_of_string_opt x with
           | Some x ->
             expected := Some (Campaign.Violated x);
             Ok ()
           | None -> Error (Printf.sprintf "bad violated value %S" x))
        | _ -> Error (Printf.sprintf "bad metadata line %S" line))
      (Ok ()) meta_lines
  in
  let* protocol =
    Option.to_result ~none:"missing 'protocol' line" !protocol
  in
  let* x_dealer = Option.to_result ~none:"missing 'value' line" !x_dealer in
  Ok { protocol; x_dealer; instance; program; expected = !expected }

let to_file path t =
  let* text = to_string t in
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc text;
        Out_channel.output_char oc '\n');
    Ok ()
  with Sys_error e -> Error e

let of_file path =
  try of_string (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Replaying                                                           *)
(* ------------------------------------------------------------------ *)

let replay t =
  Campaign.execute_traced t.protocol t.instance ~x_dealer:t.x_dealer t.program

let verdict_matches t (r : Campaign.run_report) =
  match t.expected with
  | None -> true
  | Some v -> Campaign.verdict_equal v r.Campaign.verdict
