type decision = Rmt_net.Transport.decision = {
  drop : bool;
  delay : int;
  key : int;
  dup : int option;
}

let sync_decision = Rmt_net.Transport.sync_decision
let drop_decision = { drop = true; delay = 1; key = 0; dup = None }

let decision_is_sync d =
  (not d.drop) && d.delay = 1 && d.key = 0 && d.dup = None

let decision_equal a b =
  a.drop = b.drop && a.delay = b.delay && a.key = b.key
  && Option.equal Int.equal a.dup b.dup

(* A dropped message has no delivery to delay, reorder or duplicate;
   canonicalizing keeps fingerprints and sizes stable. *)
let canon d = if d.drop then drop_decision else d

let decision_size d =
  if d.drop then 1
  else
    d.delay - 1
    + (if d.key <> 0 then 1 else 0)
    + match d.dup with Some _ -> 1 | None -> 0

type t = {
  bound : int;
  entries : (int * decision) list;
}

let bound t = t.bound
let entries t = t.entries

(* The simulator's round budget scales with the bound, so an unchecked
   bound read from a file is unbounded work.  64 is an order of
   magnitude above every bound the repository drives (policy presets,
   Envelope.default, the frontier grid, and the CLI lanes all stay <= 6). *)
let max_bound = 64

let make ~bound entries =
  if bound < 1 then invalid_arg "Schedule.make: bound must be >= 1";
  if bound > max_bound then
    invalid_arg
      (Printf.sprintf "Schedule.make: bound %d above the cap %d" bound
         max_bound);
  let entries =
    List.filter_map
      (fun (seq, d) ->
        if seq < 0 then invalid_arg "Schedule.make: negative seq";
        let d = canon d in
        if d.delay < 1 then invalid_arg "Schedule.make: delay must be >= 1";
        if d.delay > bound then
          invalid_arg "Schedule.make: delay above the bound";
        if d.key < 0 then invalid_arg "Schedule.make: negative key";
        (match d.dup with
         | Some e when e < 1 ->
           invalid_arg "Schedule.make: dup delay must be >= 1"
         | Some e when e > bound ->
           invalid_arg "Schedule.make: dup delay above the bound"
         | _ -> ());
        if decision_is_sync d then None else Some (seq, d))
      entries
    |> List.stable_sort (fun (s1, _) (s2, _) -> Int.compare s1 s2)
  in
  let rec check = function
    | (s1, _) :: ((s2, _) :: _ as rest) ->
      if s1 = s2 then
        invalid_arg
          (Printf.sprintf "Schedule.make: two decisions for message %d" s1)
      else check rest
    | _ -> ()
  in
  check entries;
  { bound; entries }

let sync = { bound = 1; entries = [] }

let size t = List.fold_left (fun acc (_, d) -> acc + decision_size d) 0 t.entries

let decision_for t seq =
  match List.assoc_opt seq t.entries with
  | Some d -> d
  | None -> sync_decision

let equal a b =
  a.bound = b.bound
  && List.equal
       (fun (s1, d1) (s2, d2) -> s1 = s2 && decision_equal d1 d2)
       a.entries b.entries

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let entry_to_line (seq, d) =
  if d.drop then Printf.sprintf "sched %d drop" seq
  else
    let fields =
      (if d.delay > 1 then [ Printf.sprintf "delay %d" d.delay ] else [])
      @ (if d.key <> 0 then [ Printf.sprintf "key %d" d.key ] else [])
      @ match d.dup with
        | Some e -> [ Printf.sprintf "dup %d" e ]
        | None -> []
    in
    String.concat " " (Printf.sprintf "sched %d" seq :: fields)

let to_lines t =
  ("# rmt schedule" :: [ Printf.sprintf "sched-bound %d" t.bound ])
  @ List.map entry_to_line t.entries

let to_string t = String.concat "\n" (to_lines t) ^ "\n"

let ( let* ) = Result.bind

let parse_int ~ctx s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" ctx s)

let parse_entry ~ctx seq rest =
  let* seq = parse_int ~ctx seq in
  match rest with
  | [ "drop" ] -> Ok (seq, drop_decision)
  | _ ->
    let rec fields d = function
      | [] -> Ok d
      | "delay" :: v :: rest ->
        let* v = parse_int ~ctx v in
        fields { d with delay = v } rest
      | "key" :: v :: rest ->
        let* v = parse_int ~ctx v in
        fields { d with key = v } rest
      | "dup" :: v :: rest ->
        let* v = parse_int ~ctx v in
        fields { d with dup = Some v } rest
      | tok :: _ -> Error (Printf.sprintf "%s: unknown field %S" ctx tok)
    in
    let* d = fields sync_decision rest in
    Ok (seq, d)

let of_lines lines =
  let* bound, entries =
    List.fold_left
      (fun acc (lineno, line) ->
        let* bound, entries = acc in
        let ctx = Printf.sprintf "line %d" lineno in
        match Rmt_base.Util.tokens line with
        | [] -> Ok (bound, entries)
        | [ "sched-bound"; b ] ->
          let* b = parse_int ~ctx b in
          if b < 1 then Error (Printf.sprintf "%s: bound must be >= 1" ctx)
          else Ok (Some b, entries)
        | "sched" :: seq :: rest ->
          let* e = parse_entry ~ctx seq rest in
          Ok (bound, e :: entries)
        | kw :: _ -> Error (Printf.sprintf "%s: unknown keyword %S" ctx kw))
      (Ok (None, []))
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let* bound = Option.to_result ~none:"missing 'sched-bound' line" bound in
  try Ok (make ~bound (List.rev entries))
  with Invalid_argument m -> Error m

let of_string text = of_lines (String.split_on_char '\n' text)

let to_file path t =
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_string t));
    Ok ()
  with Sys_error e -> Error e

let of_file path =
  try of_string (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e

let pp ppf t =
  Format.fprintf ppf "@[<v>bound %d, %d entries (size %d)" t.bound
    (List.length t.entries) (size t);
  List.iter (fun e -> Format.fprintf ppf "@,%s" (entry_to_line e)) t.entries;
  Format.fprintf ppf "@]"
