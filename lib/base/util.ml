let list_product xs ys =
  List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let list_take n l =
  let rec go n l acc =
    match (n, l) with
    | 0, _ | _, [] -> List.rev acc
    | n, x :: rest -> go (n - 1) rest (x :: acc)
  in
  go n l []

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

let sum_by_f f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let mean = function
  | [] -> 0.
  | xs -> sum_by_f Fun.id xs /. float_of_int (List.length xs)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let n = List.length s in
    let a = List.nth s ((n - 1) / 2) and b = List.nth s (n / 2) in
    (a +. b) /. 2.

let percentile p xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let n = List.length s in
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    List.nth s (max 0 (min (n - 1) idx))

let group_by ~cmp key l =
  let tagged = List.map (fun x -> (key x, x)) l in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> cmp a b) tagged in
  (* Equal keys are adjacent after the sort, so one linear pass groups
     them — no polymorphic compare anywhere (rmt-lint R1). *)
  let rec go = function
    | [] -> []
    | (k, x) :: rest ->
      let rec split acc = function
        | (k', x') :: tl when cmp k' k = 0 -> split (x' :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let same, others = split [] rest in
      (k, x :: same) :: go others
  in
  go sorted

let tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.filter_map (fun w ->
         match String.trim w with "" -> None | w -> Some w)
