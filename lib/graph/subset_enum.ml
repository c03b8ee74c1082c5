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
   c ∈ N(B), so N(B ∪ {c}) = (N(B) ∪ N(c)) ∖ (B ∪ {c}). *)
let connected_supersets_acc ?(budget = 2_000_000) g ~seed ~forbidden ~init
    ~extend f =
  if (not (Graph.mem_node seed g)) || Nodeset.mem seed forbidden then
    { complete = true; visited = 0 }
  else begin
    let visited = ref 0 in
    let rec go b nb acc excluded =
      incr visited;
      if !visited > budget then raise Out_of_budget;
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
