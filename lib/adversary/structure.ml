open Rmt_base

(* Packed antichain representation.

   The maximal sets live in an array sorted by (cardinality, Nodeset.compare)
   — size-bucketed, since a set can only be dominated by a *strictly larger*
   one — with two per-set caches: the popcount and a one-word signature
   (OR-fold of the bitset words).  [subset a b] implies both [|a| <= |b|] and
   [sig a ⊆ sig b], so membership and reduction refute almost every candidate
   pair with two integer comparisons before touching the arrays. *)

type t = {
  ground : Nodeset.t;
  maximal : Nodeset.t array; (* antichain, sorted by (size, Nodeset.compare) *)
  sizes : int array; (* cached Nodeset.size, same index *)
  sigs : int array; (* cached Nodeset.signature, same index *)
}

let cmp_sized (s1, z1) (s2, z2) =
  let c = Int.compare s1 s2 in
  if c <> 0 then c else Nodeset.compare z1 z2

(* Sort by (size, compare), dedup, drop dominated sets.  Cross-bucket only:
   within a size bucket distinct sets never dominate each other, and a set
   dominated by an already-dominated one is also dominated by some kept
   (transitivity), so scanning kept strictly-larger sets suffices. *)
let pack sets =
  let keyed = Array.of_list (List.map (fun z -> (Nodeset.size z, z)) sets) in
  Array.sort cmp_sized keyed;
  let n0 = Array.length keyed in
  let uniq = ref 0 in
  for i = 0 to n0 - 1 do
    if !uniq = 0 || cmp_sized keyed.(!uniq - 1) keyed.(i) <> 0 then begin
      keyed.(!uniq) <- keyed.(i);
      incr uniq
    end
  done;
  let n = !uniq in
  let sizes = Array.init n (fun i -> fst keyed.(i)) in
  let elts = Array.init n (fun i -> snd keyed.(i)) in
  let sigs = Array.map Nodeset.signature elts in
  (* bound.(i): first index whose set is strictly larger than elts.(i) *)
  let bound = Array.make (max n 1) n in
  for i = n - 2 downto 0 do
    bound.(i) <- (if sizes.(i) = sizes.(i + 1) then bound.(i + 1) else i + 1)
  done;
  let keep = Array.make n true in
  for i = n - 1 downto 0 do
    let si = sigs.(i) in
    let j = ref bound.(i) in
    while keep.(i) && !j < n do
      if
        keep.(!j)
        && si land lnot sigs.(!j) = 0
        && Nodeset.subset elts.(i) elts.(!j)
      then keep.(i) <- false;
      incr j
    done
  done;
  let kept = ref 0 in
  Array.iter (fun k -> if k then incr kept) keep;
  let maximal = Array.make !kept Nodeset.empty in
  let out_sizes = Array.make !kept 0 in
  let out_sigs = Array.make !kept 0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      maximal.(!w) <- elts.(i);
      out_sizes.(!w) <- sizes.(i);
      out_sigs.(!w) <- sigs.(i);
      incr w
    end
  done;
  (maximal, out_sizes, out_sigs)

let make ~ground sets =
  let maximal, sizes, sigs = pack sets in
  { ground; maximal; sizes; sigs }

(* Keep only maximal sets, in canonical order — exposed for reuse in tests
   and candidate pipelines. *)
let reduce sets =
  let maximal, _, _ = pack sets in
  Array.to_list maximal

let of_sets ~ground sets =
  List.iter
    (fun z ->
      if not (Nodeset.subset z ground) then
        invalid_arg "Structure.of_sets: set outside ground")
    sets;
  make ~ground sets

let empty_family ~ground =
  { ground; maximal = [||]; sizes = [||]; sigs = [||] }

let trivial ~ground = make ~ground [ Nodeset.empty ]

let binom n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else begin
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let rec combinations k elts =
  if k = 0 then [ Nodeset.empty ]
  else
    match elts with
    | [] -> []
    | x :: rest ->
      List.map (Nodeset.add x) (combinations (k - 1) rest)
      @ combinations k rest

let threshold ~ground t =
  let n = Nodeset.size ground in
  let t = max 0 (min t n) in
  if binom n t > 1_000_000 then
    invalid_arg "Structure.threshold: antichain too large";
  make ~ground (combinations t (Nodeset.elements ground))

let ground s = s.ground

let maximal_sets s = Array.to_list s.maximal

let num_maximal s = Array.length s.maximal

(* First index whose set has size >= k (binary search on the sorted sizes). *)
let first_at_least s k =
  let lo = ref 0 and hi = ref (Array.length s.maximal) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.sizes.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let mem z s =
  let n = Array.length s.maximal in
  if n = 0 then false
  else begin
    let k = Nodeset.size z in
    let sg = Nodeset.signature z in
    let rec scan i =
      i < n
      && ((sg land lnot s.sigs.(i) = 0 && Nodeset.subset z s.maximal.(i))
          || scan (i + 1))
    in
    scan (first_at_least s k)
  end

let of_predicate ~ground pred =
  if Nodeset.size ground > 20 then
    invalid_arg "Structure.of_predicate: ground too large";
  let sets = ref [] in
  Nodeset.subsets_iter ground (fun z -> if pred z then sets := z :: !sets);
  let s = make ~ground !sets in
  (* downward-closure sanity check: every single-element removal of an
     admissible set must stay admissible.  Exhaustive on small grounds,
     restricted to the antichain on larger ones to stay cheap. *)
  let to_check =
    if Nodeset.size ground <= 14 then !sets else maximal_sets s
  in
  List.iter
    (fun z ->
      Nodeset.iter
        (fun v ->
          if not (pred (Nodeset.remove v z)) then
            invalid_arg "Structure.of_predicate: predicate not monotone")
        z)
    to_check;
  s

let add_set z s =
  make ~ground:(Nodeset.union s.ground z) (z :: maximal_sets s)

let is_empty_family s = Array.length s.maximal = 0

let equal s1 s2 =
  Nodeset.equal s1.ground s2.ground
  && Array.length s1.maximal = Array.length s2.maximal
  && begin
    let ok = ref true in
    Array.iteri
      (fun i m -> if not (Nodeset.equal m s2.maximal.(i)) then ok := false)
      s1.maximal;
    !ok
  end

let subset_family s1 s2 = Array.for_all (fun m -> mem m s2) s1.maximal

let restrict a s =
  make ~ground:(Nodeset.inter s.ground a)
    (Array.fold_left (fun acc m -> Nodeset.inter a m :: acc) [] s.maximal)

let satisfies_qk s a k =
  (* can k maximal sets cover a?  DFS over the antichain, shrinking a *)
  let rec coverable a k =
    if Nodeset.is_empty a then true
    else if k = 0 then false
    else
      Array.exists
        (fun m ->
          (* skip sets that don't help *)
          (not (Nodeset.disjoint m a)) && coverable (Nodeset.diff a m) (k - 1))
        s.maximal
  in
  not (coverable a k)

(* ------------------------------------------------------------------ *)
(* Incremental antichain accumulation                                  *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  (* Unordered working antichain with the same (size, signature) caches as
     the packed form.  [add] keeps the invariant incrementally, so a
     candidate pipeline (e.g. the ⊕ join) skips covered candidates the
     moment they are produced instead of accumulating all of them for a
     final quadratic reduction. *)
  type entry = {
    e_size : int;
    e_sig : int;
    e_set : Nodeset.t;
  }

  type b = { mutable items : entry list }

  let create () = { items = [] }

  let covered_keyed b k sg z =
    List.exists
      (fun e ->
        e.e_size >= k
        && sg land lnot e.e_sig = 0
        && Nodeset.subset z e.e_set)
      b.items

  let covered b z = covered_keyed b (Nodeset.size z) (Nodeset.signature z) z

  let add b z =
    let k = Nodeset.size z in
    let sg = Nodeset.signature z in
    if not (covered_keyed b k sg z) then begin
      let survivors =
        List.filter
          (fun e ->
            not
              (e.e_size <= k
              && e.e_sig land lnot sg = 0
              && Nodeset.subset e.e_set z))
          b.items
      in
      b.items <- { e_size = k; e_sig = sg; e_set = z } :: survivors
    end

  let cardinal b = List.length b.items

  let to_structure ~ground b =
    (* items already form an antichain; [make] only re-sorts into canonical
       order (the cross-bucket domination scan finds nothing to drop) *)
    List.iter
      (fun e ->
        if not (Nodeset.subset e.e_set ground) then
          invalid_arg "Structure.Builder.to_structure: set outside ground")
      b.items;
    make ~ground (List.map (fun e -> e.e_set) b.items)
end

let pp ppf s =
  Format.fprintf ppf "@[<hov 2>{ground=%a;@ maximal=[%a]}@]" Nodeset.pp s.ground
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Nodeset.pp)
    (maximal_sets s)

let to_string s = Format.asprintf "%a" pp s
