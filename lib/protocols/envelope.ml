type t = {
  delay_bound : int;
  drop_budget : int;
}

let max_drop_budget = 3

let make ~delay_bound ~drop_budget =
  {
    delay_bound = max 1 delay_bound;
    drop_budget = min max_drop_budget (max 0 drop_budget);
  }

let default = make ~delay_bound:3 ~drop_budget:2

let slots t = List.init (t.drop_budget + 1) (fun _ -> ())

let commit_round t ~num_nodes = ((num_nodes - 1) * t.delay_bound) + 2

let to_string t = Printf.sprintf "d%dl%d" t.delay_bound t.drop_budget

let of_string s =
  match Scanf.sscanf_opt s "d%dl%d%!" (fun d l -> (d, l)) with
  | Some (d, l) when d >= 1 && l >= 0 && l <= max_drop_budget ->
    Some { delay_bound = d; drop_budget = l }
  | _ -> None
