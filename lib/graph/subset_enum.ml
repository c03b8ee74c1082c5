open Rmt_base

type outcome = {
  complete : bool;
  visited : int;
}

exception Stop
exception Out_of_budget

(* Enumerate connected supersets of {seed} exactly once each: emit B, then
   for each boundary candidate c (in a fixed order) recurse on B ∪ {c},
   excluding c from all later branches at this level.  This is the standard
   polynomial-delay connected-subgraph enumeration.  N(B) rides along:
   c ∈ N(B), so N(B ∪ {c}) = (N(B) ∪ N(c)) ∖ (B ∪ {c}).

   The [pinned] prune: a pinned x ∈ N(B) stays on the boundary of every
   B' ⊇ B that leaves it out, so the subtree's only emittable sets contain
   x.  If x may not join (excluded at this level or forbidden) the subtree
   is dead; otherwise B steps to B ∪ {x} under the same exclusions, without
   emitting B.  [prune] is decided once, so an unpinned enumeration never
   tests the boundary against the pinned set. *)
let connected_supersets_acc ?(budget = 2_000_000) ?(pinned = Nodeset.empty) g
    ~seed ~forbidden ~init ~extend f =
  if (not (Graph.mem_node seed g)) || Nodeset.mem seed forbidden then
    { complete = true; visited = 0 }
  else begin
    let visited = ref 0 in
    let prune = not (Nodeset.is_empty pinned) in
    let rec go b nb acc excluded =
      incr visited;
      if !visited > budget then raise Out_of_budget;
      if prune && not (Nodeset.disjoint nb pinned) then force b nb acc excluded
      else begin
        if f b nb acc then raise Stop;
        let candidates = Nodeset.diff (Nodeset.diff nb excluded) forbidden in
        let excluded = ref excluded in
        Nodeset.iter
          (fun c ->
            excluded := Nodeset.add c !excluded;
            let b' = Nodeset.add c b in
            go b'
              (Nodeset.diff (Nodeset.union nb (Graph.neighbors c g)) b')
              (extend acc c) !excluded)
          candidates
      end
    and force b nb acc excluded =
      let on_boundary = Nodeset.inter nb pinned in
      if
        Nodeset.disjoint on_boundary excluded
        && Nodeset.disjoint on_boundary forbidden
      then begin
        let x = Option.get (Nodeset.min_elt_opt on_boundary) in
        let b' = Nodeset.add x b in
        go b'
          (Nodeset.diff (Nodeset.union nb (Graph.neighbors x g)) b')
          (extend acc x) excluded
      end
    in
    let complete =
      try
        go (Nodeset.singleton seed) (Graph.neighbors seed g) init
          Nodeset.empty;
        true
      with
      | Stop -> true
      | Out_of_budget -> false
    in
    { complete; visited = !visited }
  end

let connected_supersets ?budget g ~seed ~forbidden f =
  connected_supersets_acc ?budget g ~seed ~forbidden ~init:()
    ~extend:(fun () _ -> ())
    (fun b nb () -> f b nb)
