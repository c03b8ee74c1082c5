type feasibility =
  | Solvable
  | Unsolvable
  | Unknown

let feasibility_equal a b =
  match (a, b) with
  | Solvable, Solvable | Unsolvable, Unsolvable | Unknown, Unknown -> true
  | (Solvable | Unsolvable | Unknown), _ -> false

let is_solvable f = feasibility_equal f Solvable

let pp_feasibility ppf = function
  | Solvable -> Format.pp_print_string ppf "solvable"
  | Unsolvable -> Format.pp_print_string ppf "unsolvable"
  | Unknown -> Format.pp_print_string ppf "unknown"

let of_verdict (v : Cut.verdict) =
  match (v.cut_found, v.complete) with
  | Some _, _ -> Unsolvable
  | None, true -> Solvable
  | None, false -> Unknown

let partial_knowledge inst = of_verdict (Cut.find_rmt_cut inst)

let ad_hoc inst = of_verdict (Cut.find_rmt_zpp_cut inst)
